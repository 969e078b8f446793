// async_checkpoint — interoperable progress across subsystems (§2.6/§2.7):
// a compute loop checkpoints its state to simulated storage WITHOUT ever
// blocking on I/O. The storage engine (mpx::io) is built entirely on the
// MPIX_Async + generalized-request extensions, so checkpoint completions
// flow through the same progress engine as everything else — here driven by
// a stream-scoped helper thread while the main thread only computes and
// checks is_complete().
//
// Build & run:  ./examples/async_checkpoint [steps]
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include "mpx/io/file.hpp"
#include "mpx/mpx.hpp"
#include "mpx/task/progress_thread.hpp"

int main(int argc, char** argv) {
  const int steps = argc > 1 ? std::atoi(argv[1]) : 10;
  auto world = mpx::World::create(mpx::WorldConfig{.nranks = 1});
  auto disk = std::make_shared<mpx::io::SimDisk>(*world);

  // Checkpoints live on their own stream; a helper thread progresses it.
  // Between checkpoints its polls come up empty and it parks on the sleep
  // rung of the WorldConfig::wait_* ladder instead of burning a core.
  mpx::Stream ckpt_stream = world->stream_create(0);
  mpx::io::File ckpt =
      mpx::io::File::open(disk, "state.ckpt", ckpt_stream);
  mpx::task::ProgressThread helper(ckpt_stream);

  std::vector<double> state(1 << 16);
  std::iota(state.begin(), state.end(), 0.0);
  mpx::Request pending_ckpt;
  int checkpoints_overlapped = 0;

  for (int step = 0; step < steps; ++step) {
    // "Compute": advance the state.
    for (auto& x : state) x = 0.5 * x + 1.0;

    // Drop a checkpoint every other step. iwrite_at captures the buffer, so
    // the next compute step may modify `state` immediately.
    if (step % 2 == 0) {
      if (pending_ckpt.valid() && !pending_ckpt.is_complete()) {
        ++checkpoints_overlapped;  // previous one still in flight: overlap!
        pending_ckpt.wait();       // bound the queue depth to one
      }
      pending_ckpt = ckpt.iwrite_at(
          0, mpx::base::as_bytes(state.data(), state.size()));
      std::printf("step %2d: checkpoint launched (%zu KB)\n", step,
                  state.size() * sizeof(double) / 1024);
    }
  }
  if (pending_ckpt.valid()) pending_ckpt.wait();
  helper.stop();

  std::printf(
      "done: %llu checkpoints written, %d overlapped with compute,\n"
      "      helper made %llu productive progress calls\n",
      static_cast<unsigned long long>(disk->writes_completed()),
      checkpoints_overlapped,
      static_cast<unsigned long long>(helper.productive()));

  // Verify the last checkpoint on the "disk".
  const auto back = disk->raw_read("state.ckpt", 0, 64);
  std::printf("first checkpointed double: %.3f\n",
              *reinterpret_cast<const double*>(back.data()));
  world->finalize_rank(0);
  world->stream_free(ckpt_stream);
  return 0;
}
