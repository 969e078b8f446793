// Ablation (§5.1): the classic global async-progress thread vs the paper's
// stream-scoped alternative.
//
// A latency-sensitive main thread ping-pongs small eager messages between
// two ranks. Three configurations:
//
//   none           — no helper thread (baseline latency)
//   global_helper  — helpers poll the SAME default streams the main
//                    thread uses (the MPIR_CVAR_ASYNC_PROGRESS design):
//                    every isend/recv now contends with the helper for the
//                    VCI lock, the paper's THREAD_MULTIPLE tax
//   stream_helper  — helpers poll separate MPIX streams: background progress
//                    exists, but the main thread's VCI stays uncontended
//
// Reported: round trips per second and the VCI-0 lock contention counters.
// (Single-core note: helpers back off through the WorldConfig::wait_*
// spin/yield/sleep ladder after idle polls so the main thread can run; the
// contended-acquire counter is the scheduling-independent signal.)
#include <benchmark/benchmark.h>

#include "mpx/mpx.hpp"
#include "mpx/task/progress_thread.hpp"

namespace {

enum class Mode : int { none = 0, global_helper = 1, stream_helper = 2 };

void BM_PingPongWithHelpers(benchmark::State& state) {
  const Mode mode = static_cast<Mode>(state.range(0));
  mpx::WorldConfig cfg;
  cfg.nranks = 2;
  auto world = mpx::World::create(cfg);
  mpx::Comm c0 = world->comm_world(0);
  mpx::Comm c1 = world->comm_world(1);

  std::unique_ptr<mpx::task::ProgressThread> h0, h1;
  mpx::Stream s0 = world->null_stream(0);
  mpx::Stream s1 = world->null_stream(1);
  mpx::Stream e0, e1;
  if (mode == Mode::global_helper) {
    h0 = std::make_unique<mpx::task::ProgressThread>(s0);
    h1 = std::make_unique<mpx::task::ProgressThread>(s1);
  } else if (mode == Mode::stream_helper) {
    e0 = world->stream_create(0);
    e1 = world->stream_create(1);
    h0 = std::make_unique<mpx::task::ProgressThread>(e0);
    h1 = std::make_unique<mpx::task::ProgressThread>(e1);
  }
  world->vci_lock_stats(0, 0);  // touch
  const auto before0 = world->vci_lock_stats(0, 0);

  std::int64_t token = 0;
  for (auto _ : state) {
    // One round trip, driven entirely by the main thread.
    c0.send(&token, 1, mpx::dtype::Datatype::int64(), 1, 1);
    c1.recv(&token, 1, mpx::dtype::Datatype::int64(), 0, 1);
    c1.send(&token, 1, mpx::dtype::Datatype::int64(), 0, 2);
    c0.recv(&token, 1, mpx::dtype::Datatype::int64(), 1, 2);
  }

  h0.reset();
  h1.reset();
  const auto after0 = world->vci_lock_stats(0, 0);
  state.counters["vci0_contended"] =
      static_cast<double>(after0.contended - before0.contended);
  state.counters["vci0_acquires"] =
      static_cast<double>(after0.acquires - before0.acquires);
  switch (mode) {
    case Mode::none: state.SetLabel("no_helper"); break;
    case Mode::global_helper: state.SetLabel("global_progress_thread"); break;
    case Mode::stream_helper: state.SetLabel("stream_scoped_helper"); break;
  }
  if (e0.valid()) world->stream_free(e0);
  if (e1.valid()) world->stream_free(e1);
}

}  // namespace

BENCHMARK(BM_PingPongWithHelpers)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->MinTime(0.1)
    ->UseRealTime();

BENCHMARK_MAIN();
