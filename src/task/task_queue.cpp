#include "mpx/task/task_queue.hpp"

#include "mpx/core/waittest.hpp"

namespace mpx::task {

AsyncResult TaskQueue::trampoline(AsyncThing& thing) {
  return static_cast<TaskQueue*>(thing.state())->class_poll();
}

TaskQueue::~TaskQueue() {
  // The progress hook holds `this`: drain before dying. Destroying a queue
  // whose tasks can no longer complete is a deadlock by contract.
  drain();
}

void TaskQueue::push(std::function<bool()> poll) {
  expects(static_cast<bool>(poll), "TaskQueue::push: empty task");
  bool need_hook = false;
  {
    base::LockGuard<base::Spinlock> g(mu_);
    q_.push_back(std::move(poll));
    if (!hook_active_) {
      hook_active_ = true;
      need_hook = true;
    }
  }
  if (need_hook) {
    async_start(&TaskQueue::trampoline, this, stream_);
  }
}

std::size_t TaskQueue::pending() const {
  base::LockGuard<base::Spinlock> g(mu_);
  return q_.size();
}

void TaskQueue::drain() {
  progress_until(stream_, [this] {
    base::LockGuard<base::Spinlock> g(mu_);
    return !hook_active_;
  });
}

AsyncResult TaskQueue::class_poll() {
  // Head-only polling (Listing 1.4): tasks complete in order, so the cost of
  // one progress pass is O(1) regardless of queue depth.
  for (;;) {
    std::function<bool()>* head = nullptr;
    {
      base::LockGuard<base::Spinlock> g(mu_);
      if (q_.empty()) {
        hook_active_ = false;
        return AsyncResult::done;
      }
      head = &q_.front();
    }
    // Run outside the queue lock: the task may push follow-on work.
    if (!(*head)()) return AsyncResult::noprogress;
    base::LockGuard<base::Spinlock> g(mu_);
    q_.pop_front();
  }
}

}  // namespace mpx::task
