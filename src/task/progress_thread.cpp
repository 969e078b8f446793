#include "mpx/task/progress_thread.hpp"

#include "mpx/core/world.hpp"

namespace mpx::task {

// Stream::world() rejects an invalid handle.
ProgressThread::ProgressThread(Stream stream)
    : ProgressThread(stream.world(),
                     [stream] { return stream_progress(stream); }) {}

ProgressThread::ProgressThread(const World& world, std::function<int()> poll)
    : poll_(std::move(poll)) {
  const WorldConfig& wc = world.config();
  wait_ = core_detail::WaitPolicy{wc.wait_spin, wc.wait_yield,
                                  wc.wait_sleep_max_us};
  thread_ = base::ScopedThread([this] { run(); });
}

ProgressThread::~ProgressThread() { stop(); }

void ProgressThread::stop() {
  stop_.store(true, std::memory_order_release);
  // call_once runs the join exactly once (a second std::thread::join is
  // UB); racing callers block until it returns, and its completion
  // synchronizes-with them, so every caller sees the final counters.
  std::call_once(join_once_, [this] { thread_.join(); });
}

void ProgressThread::run() {
  base::set_current_thread_name("mpx-progress");
  core_detail::WaitBackoff backoff{wait_, &rungs_};
  while (!stop_.load(std::memory_order_acquire)) {
    const int made = poll_();
    iterations_.fetch_add(1, std::memory_order_relaxed);
    if (made != 0) {
      productive_.fetch_add(1, std::memory_order_relaxed);
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
}

}  // namespace mpx::task
