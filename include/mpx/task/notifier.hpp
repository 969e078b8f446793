// mpx/task/notifier.hpp
//
// Request-completion event loop (paper §4.5, Listing 1.6): a single
// MPIX_Async hook scans the watched requests with is_complete() — one atomic
// read each, no progress side effects — and fires callbacks as completions
// appear. The paper's "poor man's" event-driven layer; the ext::continue
// API is the integrated alternative (abl_continue_vs_async compares them).
#pragma once

#include <functional>
#include <vector>

#include "mpx/base/lock_rank.hpp"
#include "mpx/base/spinlock.hpp"
#include "mpx/base/thread_safety.hpp"
#include "mpx/core/async.hpp"
#include "mpx/core/request.hpp"

namespace mpx::task {

/// Completion callbacks over a dynamic set of requests.
class RequestNotifier {
 public:
  explicit RequestNotifier(const Stream& stream) : stream_(stream) {}
  ~RequestNotifier();

  RequestNotifier(const RequestNotifier&) = delete;
  RequestNotifier& operator=(const RequestNotifier&) = delete;

  /// Invoke `cb(status)` (from within progress) when `r` completes.
  void watch(Request r, std::function<void(const Status&)> cb);

  /// Requests still being watched.
  std::size_t pending() const;

  /// Drive the stream's progress (progress_until) until no requests remain
  /// watched.
  void drain();

 private:
  struct Entry {
    Request req;
    std::function<void(const Status&)> cb;
  };

  AsyncResult poll();
  static AsyncResult trampoline(AsyncThing& thing);

  Stream stream_;  // mpxlint: allow(tsa-ratchet) immutable after construction
  // Rank task_queue: poll() runs under the stream's VCI lock (rank vci), so
  // this lock always nests inside it — never the other way around.
  mutable base::Spinlock mu_{"task:notifier", base::LockRank::task_queue};
  std::vector<Entry> entries_ MPX_GUARDED_BY(mu_);
  bool hook_active_ MPX_GUARDED_BY(mu_) = false;
};

}  // namespace mpx::task
