#include "mpx/task/notifier.hpp"

#include "mpx/core/waittest.hpp"

namespace mpx::task {

AsyncResult RequestNotifier::trampoline(AsyncThing& thing) {
  return static_cast<RequestNotifier*>(thing.state())->poll();
}

RequestNotifier::~RequestNotifier() { drain(); }

void RequestNotifier::watch(Request r, std::function<void(const Status&)> cb) {
  expects(r.valid(), "RequestNotifier::watch: invalid request");
  bool need_hook = false;
  {
    base::LockGuard<base::Spinlock> g(mu_);
    entries_.push_back(Entry{std::move(r), std::move(cb)});
    if (!hook_active_) {
      hook_active_ = true;
      need_hook = true;
    }
  }
  if (need_hook) {
    async_start(&RequestNotifier::trampoline, this, stream_);
  }
}

std::size_t RequestNotifier::pending() const {
  base::LockGuard<base::Spinlock> g(mu_);
  return entries_.size();
}

void RequestNotifier::drain() {
  progress_until(stream_, [this] {
    base::LockGuard<base::Spinlock> g(mu_);
    return !hook_active_;
  });
}

AsyncResult RequestNotifier::poll() {
  // Collect fired entries under the lock, run callbacks outside it (a
  // callback may watch() new requests).
  std::vector<Entry> fired;
  bool done = false;
  {
    base::LockGuard<base::Spinlock> g(mu_);
    for (std::size_t i = 0; i < entries_.size();) {
      if (entries_[i].req.is_complete()) {
        fired.push_back(std::move(entries_[i]));
        entries_[i] = std::move(entries_.back());
        entries_.pop_back();
      } else {
        ++i;
      }
    }
    if (entries_.empty() && fired.empty()) {
      hook_active_ = false;
      done = true;
    }
  }
  for (Entry& e : fired) {
    if (e.cb) e.cb(e.req.status());
  }
  if (!fired.empty()) {
    // New watches may have arrived from callbacks; keep the hook if so.
    base::LockGuard<base::Spinlock> g(mu_);
    if (entries_.empty()) {
      hook_active_ = false;
      done = true;
    }
  }
  return done ? AsyncResult::done : AsyncResult::noprogress;
}

}  // namespace mpx::task
