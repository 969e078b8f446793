// mpx/ext/schedule.hpp
//
// MPIX_Schedule comparison layer (paper §5.3, Schafer et al.). The proposal
// exposes MPI's internal nonblocking-collective machinery: operations are
// added as already-initiated MPI requests plus local reduction ops, grouped
// into rounds, and committed into a single schedule request.
//
// We reproduce the proposal's shape — including its key limitation the paper
// calls out: operations are REQUESTS (already initiated at add time), so a
// round boundary only gates when completions are *observed* and when local
// ops run; it cannot defer initiation of later communication. Contrast with
// the compiled collective schedules of mpx::coll::ir, which post each node
// only once its dependencies complete. Nothing measures the difference yet;
// ROADMAP item 2 holds the bench row that would.
//
// A committed schedule is polled as a user async hook on its stream's async
// stage; one still pending when its World is destroyed is freed then.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "mpx/core/async.hpp"
#include "mpx/core/comm.hpp"
#include "mpx/core/world.hpp"
#include "mpx/dtype/reduce_op.hpp"

namespace mpx::ext {

/// Builder for an MPIX_Schedule-style round schedule.
class Schedule {
 public:
  /// Rounds are progressed on `stream`.
  explicit Schedule(World& world, const Stream& stream);

  Schedule(const Schedule&) = delete;
  Schedule& operator=(const Schedule&) = delete;

  /// MPIX_Schedule_add_operation: wait for an existing request this round.
  void add_operation(Request request);

  /// MPIX_Schedule_add_mpi_operation: a local reduction executed when the
  /// round's requests have completed.
  void add_mpi_operation(dtype::ReduceOp op, const void* invec,
                         void* inoutvec, std::size_t len, dtype::Datatype dt);

  /// MPIX_Schedule_create_round: close the current round.
  void create_round();

  /// MPIX_Schedule_mark_completion_point: the schedule request completes at
  /// the end of the round current at the time of the call (later rounds
  /// still execute but are not waited on). Default: the last round.
  void mark_completion_point();

  /// MPIX_Schedule_commit: hand the schedule to the progress engine and get
  /// the tracking request back.
  static Request commit(std::unique_ptr<Schedule> sched);

 private:
  struct LocalOp {
    dtype::ReduceOp op;
    const void* in;
    void* inout;
    std::size_t len;
    dtype::Datatype dt;
  };
  struct Round {
    std::vector<Request> reqs;
    std::vector<LocalOp> local_ops;
  };

  bool poll();
  static AsyncResult poll_trampoline(AsyncThing& thing);
  Round& cur() {
    if (rounds_.empty()) rounds_.emplace_back();
    return rounds_.back();
  }

  World* world_;
  Stream stream_;
  std::vector<Round> rounds_;
  std::size_t cur_round_ = 0;
  std::size_t completion_round_ = 0;
  bool has_completion_point_ = false;
  bool handle_completed_ = false;
  Request handle_;
};

}  // namespace mpx::ext
