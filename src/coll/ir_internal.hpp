// Cross-TU internals of the coll IR layer (compiler <-> executor <-> the
// cache front end). Not installed; include only from src/coll.
#pragma once

#include <atomic>

#include "mpx/coll/ir.hpp"
#include "mpx/coll/ir_cache.hpp"
#include "mpx/core/comm_ext.hpp"

namespace mpx::coll::ir {

// ir.cpp --------------------------------------------------------------------

/// Exact symbolic overlap test on block fractions: can the two ranges
/// intersect for ANY element count? The Builder's hazard pass and the
/// verifier's hazard re-derivation must agree, so there is one definition.
bool parts_overlap(const Part& x, const Part& y);

/// Operand conflict predicate over parts_overlap (Space::none = an fn
/// node's whole-memory barrier; distinct spaces/slots are disjoint).
bool refs_conflict(const Ref& a, const Ref& b);

/// Do copy/reduce operands resolve to equal lengths at every count that is
/// a multiple of `unit`? Identical Parts always do; Parts of equal width do
/// when both divisors divide `unit` (such counts split into exact blocks).
/// The Builder and the verifier's structure pass share this rule.
bool parts_same_length(const Part& a, const Part& b, std::uint32_t unit);

// ir_compile.cpp ------------------------------------------------------------

/// Count class of a byte length: its bit width, so class `c` holds the
/// lengths in [2^(c-1), 2^c - 1].
int count_class(std::size_t bytes);

/// Largest byte length admitted by class `cls` (schedules are compiled and
/// scratch-sized for this bound).
std::size_t class_max_bytes(int cls);

/// Algorithm resolution order: per-call force, MPX_COLL_ALGO, cost model.
/// Deterministic — every rank resolves identically.
Algo resolve_algo(CollKind kind, std::size_t bytes, int size,
                  const net::CostModel& net, Algo force);

// ir_front.cpp --------------------------------------------------------------

/// Per-communicator IR state, installed in the CommImpl extension slot and
/// freed with the communicator: the schedule cache plus the resolved
/// executor source (cached so launch skips the registry scan).
struct CollCommExt final : core_detail::CommExt {
  explicit CollCommExt(std::size_t cap) : cache(cap) {}
  SchedCache cache;
  /// The world's SchedExecSource, resolved on first launch. Raw atomic:
  /// racing writers store the same value (not part of the modeled cache
  /// protocol; this file is not in the mc fileset).
  std::atomic<void*> exec{nullptr};
};

/// The ext slot of `comm`'s primary impl, installed on first use.
CollCommExt& coll_ext(const Comm& comm);

/// Resolve the algorithm, then fetch the schedule from the comm's cache or
/// compile it (uncached for non-contiguous datatypes or
/// `opts.use_cache = false`). `count` is the schedule's vector length.
SchedPtr get_or_compile(CollKind kind, std::size_t count, dtype::Datatype dt,
                        dtype::ReduceOp op, bool inp, int root,
                        const Comm& comm, const Opts& opts);

// ir_exec.cpp ---------------------------------------------------------------

/// Persistent collective over a pinned cursor: each start() re-arms
/// pre-built state (schedule, cursor, scratch, request slots) — no
/// allocation and no planning per cycle.
Request persistent_launch(SchedPtr sched, const void* sendbuf, void* recvbuf,
                          std::size_t count, const Comm& comm);

}  // namespace mpx::coll::ir
