// Request wait/test/cancel and the multi-request wait/test families. All
// blocking forms follow the paper's scheme: check is_complete() (one atomic
// read) and otherwise drive the collated progress of the request's VCI,
// idling through core_detail::poll_until.
#include "internal.hpp"
#include "mpx/core/wait_policy.hpp"
#include "mpx/core/waittest.hpp"

namespace mpx {

namespace core_detail {

WaitPolicy wait_policy(const World* world) {
  if (world == nullptr) return WaitPolicy{};
  const WorldConfig& cfg = world->config();
  return WaitPolicy{cfg.wait_spin, cfg.wait_yield, cfg.wait_sleep_max_us};
}

WaitLadderCounters* wait_rungs(const Stream& stream) {
  return &stream.world().vci(stream.rank(), stream.vci()).wait_rungs;
}

}  // namespace core_detail

using core_detail::poll_until;
using core_detail::progress_test;
using core_detail::RequestImpl;
using core_detail::wait_policy;

namespace {

/// Drive one progress pass on the VCI owning `r`; returns nonzero when the
/// pass moved anything (feeds the wait backoff ladder).
int progress_for(RequestImpl* r) {
  if (r->vci != nullptr) {
    return progress_test(*r->vci, r->vci->default_mask);
  }
  return 0;
}

/// poll_until on the ladder of `r`'s World, charging the empty rounds to
/// `r`'s VCI so the adaptive progress engine can see stuck waiters. A null
/// `r`, or a grequest with no World or VCI, idles on the default ladder
/// uncharged.
template <class Poll, class Done>
void poll_on(const RequestImpl* r, Poll&& poll, Done&& done) {
  poll_until(wait_policy(r != nullptr ? r->world : nullptr),
             r != nullptr && r->vci != nullptr ? &r->vci->wait_rungs : nullptr,
             std::forward<Poll>(poll), std::forward<Done>(done));
}

/// The request a multi-request wait idles on: the first valid one.
const RequestImpl* first_valid(std::span<Request> reqs) {
  for (Request& r : reqs) {
    if (r.valid()) return r.impl();
  }
  return nullptr;
}

}  // namespace

Status Request::wait() {
  expects(valid(), "Request::wait: invalid request");
  RequestImpl* r = impl_.get();
  poll_on(r, [r] { return progress_for(r); },
          [r] { return r->complete.load(std::memory_order_acquire); });
  return r->status;
}

std::optional<Status> Request::test() {
  expects(valid(), "Request::test: invalid request");
  RequestImpl* r = impl_.get();
  if (!r->complete.load(std::memory_order_acquire)) {
    progress_for(r);
  }
  if (r->complete.load(std::memory_order_acquire)) return r->status;
  return std::nullopt;
}

void Request::cancel() {
  expects(valid(), "Request::cancel: invalid request");
  RequestImpl* r = impl_.get();
  if (r->complete.load(std::memory_order_acquire)) return;
  if (r->kind == core_detail::ReqKind::grequest) {
    if (r->greq.cancel_fn != nullptr) {
      r->greq.cancel_fn(r->greq.extra_state, false);
    }
    return;
  }
  if (r->kind != core_detail::ReqKind::recv || r->vci == nullptr) return;
  base::LockGuard<base::InstrumentedMutex> g(r->vci->mu);
  if (r->match_hook.linked()) {
    r->vci->posted.erase(r);  // PostedQueue::erase — unlinks bin or wildcard

    r->cancelled = true;
    r->status.cancelled = true;
    core_detail::complete_request(r, Err::cancelled);
    // Drop the posted-list reference.
    base::Ref<RequestImpl> drop(r);
  }
}

Status wait_on_stream(Request& req, const Stream& stream) {
  expects(req.valid(), "wait_on_stream: invalid request");
  core_detail::stream_poll_until(wait_policy(&stream.world()), stream,
                                 [&req] { return req.is_complete(); });
  return req.status();
}

void wait_all(std::span<Request> reqs) {
  poll_on(
      first_valid(reqs),
      [reqs] {
        int made = 0;
        for (Request& r : reqs) {
          if (!r.is_complete()) made |= progress_for(r.impl());
        }
        return made;
      },
      [reqs] {
        for (Request& r : reqs) {
          if (!r.is_complete()) return false;
        }
        return true;
      });
}

void wait_all(std::span<Request> reqs, std::span<Status> statuses) {
  expects(statuses.size() == reqs.size(),
          "wait_all: statuses length must match requests");
  wait_all(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    statuses[i] = reqs[i].valid() ? reqs[i].status() : Status{};
  }
}

std::optional<Status> get_status(const Request& req) {
  expects(req.valid(), "get_status: invalid request");
  RequestImpl* r = req.impl();
  if (!r->complete.load(std::memory_order_acquire)) {
    progress_for(r);
  }
  if (r->complete.load(std::memory_order_acquire)) return r->status;
  return std::nullopt;
}

bool test_all(std::span<Request> reqs) {
  bool all = true;
  for (Request& r : reqs) {
    if (!r.is_complete()) {
      progress_for(r.impl());
      all = all && r.is_complete();
    }
  }
  return all;
}

std::size_t wait_any(std::span<Request> reqs) {
  expects(!reqs.empty(), "wait_any: empty request set");
  std::size_t hit = 0;
  poll_on(
      first_valid(reqs),
      [reqs] {
        // One pass at a time; the done check re-scans for completions.
        for (Request& r : reqs) {
          if (r.valid() && !r.is_complete()) return progress_for(r.impl());
        }
        return 0;
      },
      [reqs, &hit] {
        for (hit = 0; hit < reqs.size(); ++hit) {
          if (reqs[hit].valid() && reqs[hit].is_complete()) return true;
        }
        return false;
      });
  return hit;
}

std::optional<std::size_t> test_any(std::span<Request> reqs) {
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].valid() && reqs[i].is_complete()) return i;
  }
  for (Request& r : reqs) {
    if (r.valid() && !r.is_complete()) {
      progress_for(r.impl());
      break;
    }
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].valid() && reqs[i].is_complete()) return i;
  }
  return std::nullopt;
}

std::vector<std::size_t> test_some(std::span<Request> reqs) {
  for (Request& r : reqs) {
    if (r.valid() && !r.is_complete()) {
      progress_for(r.impl());
      break;
    }
  }
  std::vector<std::size_t> done;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].valid() && reqs[i].is_complete()) done.push_back(i);
  }
  return done;
}

}  // namespace mpx
