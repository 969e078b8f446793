#include "mpx/task/progress_thread.hpp"

#include "mpx/core/progress_source.hpp"
#include "mpx/core/world.hpp"

namespace mpx::task {

namespace {

// Stream::world() rejects an invalid handle.
core_detail::Vci& vci_of(const Stream& stream) {
  return stream.world().vci(stream.rank(), stream.vci());
}

}  // namespace

ProgressThread::ProgressThread(Stream stream)
    : ProgressThread(
          stream.world(), [stream] { return stream_progress(stream); },
          &core_detail::vci_bell(vci_of(stream)),
          [&v = vci_of(stream)] { return core_detail::vci_quiet(v); }) {}

ProgressThread::ProgressThread(const World& world, std::function<int()> poll)
    : ProgressThread(world, std::move(poll), nullptr, nullptr) {}

ProgressThread::ProgressThread(const World& world, std::function<int()> poll,
                               base::Doorbell* bell,
                               std::function<bool()> quiet)
    : poll_(std::move(poll)),
      wait_(core_detail::wait_policy(&world)),
      bell_(bell),
      quiet_(std::move(quiet)) {
  thread_ = base::ScopedThread([this] { run(); });
}

ProgressThread::~ProgressThread() { stop(); }

void ProgressThread::stop() {
  stop_.store(true, std::memory_order_release);
  // A sleeping thread's last look before the wait reads stop_, so this
  // ring cannot be lost.
  if (bell_ != nullptr) bell_->ring();
  // call_once runs the join exactly once (a second std::thread::join is
  // UB); racing callers block until it returns, and its completion
  // synchronizes-with them, so every caller sees the final counters.
  std::call_once(join_once_, [this] { thread_.join(); });
}

void ProgressThread::run() {
  base::set_current_thread_name("mpx-progress");
  core_detail::poll_until(
      wait_, &rungs_,
      [this] {
        const int made = poll_();
        iterations_.fetch_add(1, std::memory_order_relaxed);
        if (made != 0) productive_.fetch_add(1, std::memory_order_relaxed);
        return made;
      },
      [this] { return stop_.load(std::memory_order_acquire); }, bell_,
      [this] { return quiet_ != nullptr && quiet_(); });
}

}  // namespace mpx::task
