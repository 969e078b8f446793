#include "mpx/task/progress_thread.hpp"

#include "mpx/core/world.hpp"

namespace mpx::task {

ProgressThread::ProgressThread(Stream stream) : stream_(std::move(stream)) {
  expects(stream_.valid(), "ProgressThread: invalid stream");
  const WorldConfig& wc = stream_.world().config();
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
    const int made = stream_progress(stream_);
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
