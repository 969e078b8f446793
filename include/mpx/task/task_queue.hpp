// mpx/task/task_queue.hpp
//
// Application-managed task class (paper §4.3, Listing 1.4). Instead of one
// MPIX_Async hook per task — whose poll cost grows linearly with the number
// of pending tasks (Fig. 7) — the application keeps its own FIFO of
// in-order tasks behind ONE hook that polls only the queue head. Observed
// latency then stays flat in the number of pending tasks (Fig. 10).
#pragma once

#include <deque>
#include <functional>

#include "mpx/base/lock_rank.hpp"
#include "mpx/base/spinlock.hpp"
#include "mpx/base/thread_safety.hpp"
#include "mpx/core/async.hpp"

namespace mpx::task {

/// FIFO task class with head-only polling. Tasks are callables returning
/// true when complete; tasks are assumed to complete in push order (the
/// Listing 1.4 premise). push() may be called from any thread; polling runs
/// in the stream's progress.
class TaskQueue {
 public:
  explicit TaskQueue(const Stream& stream) : stream_(stream) {}
  ~TaskQueue();

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// Enqueue a task; registers the class_poll hook if none is active.
  void push(std::function<bool()> poll);

  /// Tasks not yet completed (head included).
  std::size_t pending() const;
  bool empty() const { return pending() == 0; }

  /// Drive the stream's progress (progress_until) until the queue drains.
  void drain();

 private:
  AsyncResult class_poll();
  static AsyncResult trampoline(AsyncThing& thing);

  Stream stream_;  // mpxlint: allow(tsa-ratchet) immutable after construction
  // Rank task_queue: class_poll runs under the stream's VCI lock (rank vci),
  // so this lock always nests inside it — never the other way around.
  mutable base::Spinlock mu_{"task:queue", base::LockRank::task_queue};
  std::deque<std::function<bool()>> q_ MPX_GUARDED_BY(mu_);
  bool hook_active_ MPX_GUARDED_BY(mu_) = false;
  bool destroyed_ MPX_GUARDED_BY(mu_) = false;
};

}  // namespace mpx::task
