// mpx/core/waittest.hpp
//
// Wait/test families over multiple requests (MPI_Waitall/Testany/... analogs)
// plus the paper's recommended synchronization primitive: a wait loop that
// uses is_complete() for the check and stream_progress() for the driving,
// keeping task synchronization orthogonal to the progress engine (§3.5).
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mpx/core/request.hpp"
#include "mpx/core/stream.hpp"
#include "mpx/core/wait_policy.hpp"

namespace mpx {

/// Block until every request completes, driving each pending request's VCI.
void wait_all(std::span<Request> reqs);

/// wait_all + per-request statuses (MPI_Waitall with status array).
/// `statuses` must have the same length as `reqs`.
void wait_all(std::span<Request> reqs, std::span<Status> statuses);

/// Non-destructive status query (MPI_Request_get_status analog): one
/// progress pass on the request's VCI, then the status if complete. Unlike
/// test(), usable repeatedly and side-effect-free on the request itself.
std::optional<Status> get_status(const Request& req);

/// One progress pass over the involved VCIs; true when all complete.
bool test_all(std::span<Request> reqs);

/// Block until at least one completes; returns its index.
std::size_t wait_any(std::span<Request> reqs);

/// One progress pass; index of a completed request, or nullopt.
std::optional<std::size_t> test_any(std::span<Request> reqs);

/// One progress pass; indices of all currently-complete requests.
std::vector<std::size_t> test_some(std::span<Request> reqs);

/// Drive `stream_progress(stream)` until `req` completes — the explicit
/// progress-engine form of MPI_Wait used throughout the paper's examples.
Status wait_on_stream(Request& req, const Stream& stream);

namespace core_detail {
/// Rung counters of the VCI `stream` names (Vci::wait_rungs).
WaitLadderCounters* wait_rungs(const Stream& stream);

/// Drive `stream_progress(stream)` until `pred()` holds, idling on `policy`
/// and charging the empty rounds to the stream's VCI.
template <class Pred>
void stream_poll_until(WaitPolicy policy, const Stream& stream, Pred&& pred) {
  poll_until(policy, wait_rungs(stream),
             [&stream] { return stream_progress(stream); },
             std::forward<Pred>(pred));
}
}  // namespace core_detail

/// Drive progress on `stream` until `pred()` returns true (e.g. a counter
/// decremented by async poll functions, Listing 1.3). The predicate is
/// usually flipped inside an async hook, which the ladder cannot see
/// moving, so this loop spins at full rate (core_detail::kFullRateSpin);
/// its empty rounds are charged to the stream's VCI on the spin rung.
template <class Pred>
void progress_until(const Stream& stream, Pred&& pred) {
  core_detail::stream_poll_until(core_detail::kFullRateSpin, stream,
                                 std::forward<Pred>(pred));
}

}  // namespace mpx
