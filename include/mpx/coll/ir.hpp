// mpx/coll/ir.hpp
//
// The collective schedule IR and compiler ("Extending MPI with User-Level
// Schedules" made concrete). A compiled Schedule is a flat graph of
// send/recv/reduce/copy/fn nodes with explicit dependency edges — a
// round-barrier schedule is the special case where every node of layer k
// depends on all of layer k-1. Sparser edges let independent data flow
// independently: a ring allreduce's reduce-scatter chunks stream without
// waiting for the slowest peer of each "round". Every collective in
// mpx::coll runs on this IR.
//
// Schedules are specialized once per (coll kind, dtype layout, reduce op,
// count class, in-place, root, rank) and are immutable after Builder::
// finish(): counts and offsets are stored SYMBOLICALLY as block fractions
// (resolved against the actual element count when a cursor is armed), so
// one schedule serves every count in its class. Execution state lives
// entirely in a pooled cursor (ir_exec.cpp); steady-state repeated
// collectives allocate nothing and plan nothing.
//
// Buffer hazards are inferred, not declared: the Builder records each
// node's read/write ranges and adds RAW/WAR/WAW edges against earlier
// nodes automatically, so algorithm builders are written as straight-line
// emission in program order, with no round barriers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mpx/base/pool.hpp"
#include "mpx/base/spinlock.hpp"
#include "mpx/base/thread_safety.hpp"
#include "mpx/core/comm.hpp"
#include "mpx/dtype/reduce_op.hpp"
#include "mpx/net/cost_model.hpp"

namespace mpx::coll::ir {

namespace verify {
struct Report;  // ir_verify.hpp
}

enum class CollKind : std::uint8_t {
  allreduce = 0,
  bcast,
  reduce,
  barrier,
  gather,
  scatter,
  allgather,
  alltoall,
  reduce_scatter_block,
  scan,
  exscan,
};

/// True for kinds whose buffers hold one block per rank: their schedule
/// vector is P*count and every runtime count is a multiple of P.
bool blocked(CollKind kind);

/// Concrete algorithm a schedule implements. `auto_` is only an input to
/// selection — compiled schedules always carry a resolved value.
enum class Algo : std::uint8_t {
  auto_ = 0,
  rd,          ///< recursive doubling (allreduce)
  ring,        ///< ring reduce-scatter + ring allgather (allreduce)
  rsag,        ///< recursive-halving RS + recursive-doubling AG (allreduce)
  knomial,     ///< radix-k tree (bcast, reduce)
  scatter_ag,  ///< knomial scatter + ring allgather (bcast)
  dissemination,  ///< log2(P) token rounds (barrier)
  linear,      ///< root talks to every rank directly (gather, scatter)
  pairwise,    ///< every rank exchanges with every other at once (alltoall)
  chain,       ///< prefix passed rank to rank (scan, exscan)
};

const char* to_string(Algo a);

enum class NodeKind : std::uint8_t { send = 0, recv, reduce, copy, fn };

/// Which buffer a node operand addresses.
enum class Space : std::uint8_t {
  none = 0,
  send,     ///< the caller's send buffer (read-only)
  recv,     ///< the caller's receive / in-out buffer
  scratch,  ///< a slot in the cursor's scratch arena
};

/// Symbolic element range: blocks [b0, b1) of the vector split into `div`
/// equal parts. Resolved against the runtime count as
///   lo(b) = count * b / div   (elements; the standard block partition)
/// so one schedule covers every count in its class, including counts
/// smaller than `div` (empty blocks become zero-byte operations).
struct Part {
  std::uint32_t div = 1;
  std::uint32_t b0 = 0;
  std::uint32_t b1 = 1;

  std::size_t lo(std::size_t count) const {
    return count * b0 / div;
  }
  std::size_t elems(std::size_t count) const {
    return count * b1 / div - count * b0 / div;
  }

  friend bool operator==(const Part&, const Part&) = default;
};

/// Whole vector as a Part.
inline Part full() { return Part{1, 0, 1}; }
/// Block b of the vector split into div parts.
inline Part block(std::uint32_t div, std::uint32_t b) {
  return Part{div, b, b + 1};
}
/// Blocks [b0, b1) of the vector split into div parts.
inline Part blocks(std::uint32_t div, std::uint32_t b0, std::uint32_t b1) {
  return Part{div, b0, b1};
}

/// One node operand: an element range within a buffer space. For scratch
/// operands the range indexes within slot `slot` (whose own size is a Part
/// of the vector); for send/recv it indexes the user buffer directly.
struct Ref {
  Space space = Space::none;
  std::uint16_t slot = 0;
  Part r;
};

inline Ref send_buf(Part p) { return Ref{Space::send, 0, p}; }
inline Ref recv_buf(Part p) { return Ref{Space::recv, 0, p}; }
inline Ref scratch_ref(std::uint16_t slot, Part p) {
  return Ref{Space::scratch, slot, p};
}

/// Resolved buffer view handed to fn nodes at execution time.
struct ExecView {
  const std::byte* sendbuf = nullptr;  ///< null for in-place schedules
  std::byte* recvbuf = nullptr;
  std::byte* scratch = nullptr;  ///< cursor's scratch arena base
  std::size_t count = 0;         ///< runtime element count
  std::size_t esz = 0;           ///< element extent (stride) in bytes
  int rank = 0;
  int size = 0;
};

using FnNode = std::function<void(const ExecView&)>;

/// One IR node. `a` is the source / input operand, `b` the destination /
/// in-out operand; element count comes from the operand ranges (equal by
/// construction). Flat POD-ish storage: the executor walks these arrays
/// with no per-node allocation or indirection.
struct Node {
  NodeKind kind = NodeKind::copy;
  Ref a;
  Ref b;
  std::int32_t peer = -1;      ///< comm rank (send/recv)
  std::uint16_t tag_off = 0;   ///< tag offset within the instance's range
  std::uint16_t fn_id = 0;     ///< index into Schedule::fns (fn nodes)
  std::uint16_t req_slot = 0;  ///< request slot (send/recv nodes)
};

/// Per-schedule recycler for cursor scratch arenas. All arenas of one
/// schedule share a size (sized for the schedule's count-class upper
/// bound), so a plain capped freelist suffices; steady-state cached calls
/// reuse a parked arena instead of touching the allocator. Thread-safe
/// (launch and completion may run on different member threads); the lock
/// is a leaf (LockRank::none — nothing nests inside it).
class ScratchRecycler {
 public:
  ScratchRecycler() = default;
  ScratchRecycler(const ScratchRecycler&) = delete;
  ScratchRecycler& operator=(const ScratchRecycler&) = delete;
  ~ScratchRecycler();

  /// An arena of exactly `bytes` bytes (the schedule's fixed arena size).
  std::byte* get(std::size_t bytes);
  /// Park (or free, past the cap) an arena obtained from get().
  void put(std::byte* p, std::size_t bytes);

  base::PoolStats stats() const;

 private:
  struct Node {
    Node* next;
  };
  mutable base::Spinlock mu_{"coll-scratch", base::LockRank::none};
  Node* free_ MPX_GUARDED_BY(mu_) = nullptr;
  std::size_t block_bytes_ MPX_GUARDED_BY(mu_) = 0;
  base::PoolStats st_ MPX_GUARDED_BY(mu_);
};

/// An immutable compiled schedule. Shared (const) between the per-comm
/// cache, in-flight cursors, and persistent handles; the only mutable
/// member is the scratch recycler, which is internally synchronized.
class Schedule {
 public:
  CollKind kind = CollKind::allreduce;
  Algo algo = Algo::rd;
  dtype::Datatype dt;
  dtype::ReduceOp op = dtype::ReduceOp::sum;
  bool in_place = false;
  int root = 0;
  int rank = 0;
  int size = 1;
  /// Largest element count this schedule's scratch sizing admits (the
  /// count-class upper bound it was compiled for).
  std::size_t max_count = 0;
  /// Every runtime count is a multiple of `unit` (P for blocked kinds);
  /// Parts are resolved and verified only at such counts.
  std::uint32_t unit = 1;

  std::vector<Node> nodes;
  std::vector<std::uint32_t> succ;      ///< CSR successor node ids
  std::vector<std::uint32_t> succ_off;  ///< size nodes+1
  std::vector<std::uint16_t> indeg;     ///< initial dependency counts
  std::vector<std::uint32_t> entry;     ///< nodes with indeg == 0
  std::vector<Part> slots;              ///< scratch slot sizes
  std::vector<FnNode> fns;
  std::uint32_t nreq = 0;  ///< number of send/recv nodes (request slots)

  /// Byte offset of each scratch slot and the total arena size for `count`
  /// elements of the datatype's extent (64-byte aligned slots).
  std::size_t arena_bytes(std::size_t count) const;
  std::size_t slot_offset(std::uint16_t slot, std::size_t count) const;

  mutable ScratchRecycler arena_pool;
};

using SchedPtr = std::shared_ptr<const Schedule>;

/// Straight-line schedule builder with automatic hazard edges. Emit nodes
/// in program order; every RAW/WAR/WAW overlap against an earlier node
/// becomes a dependency edge, and anything untouched by hazards runs as
/// early as its operands allow (receives into fresh scratch pre-post
/// immediately). Tags are assigned per (peer, direction) sequence so both
/// sides of a matched pair agree; sequences past the instance's 64-tag
/// range are serialized onto their predecessor automatically.
///
/// Public so user-level schedules can be built out-of-tree (the paper's
/// §5.3 direction): a custom schedule executes through the same compiled
/// cursor machinery as the built-in algorithms.
///
/// Copy and reduce operands must resolve to equal lengths at every count:
/// identical Parts always do. With `unit` > 1 the schedule only ever runs
/// at multiples of `unit`, so Parts of equal width whose divisors divide
/// `unit` also qualify — a copy may move block i to block j.
class Builder {
 public:
  Builder(CollKind kind, dtype::Datatype dt, dtype::ReduceOp op,
          bool in_place, int rank, int size, std::uint32_t unit = 1);

  /// Allocate a scratch slot sized to `size` (a Part of the vector).
  std::uint16_t scratch(Part size);

  void send(Ref src, int peer);
  void recv(Ref dst, int peer);
  /// inout[i] = op(inout[i], in[i]) over the operand range.
  void reduce(Ref in, Ref inout);
  void copy(Ref src, Ref dst);
  /// Arbitrary local work; ordered as if it read and wrote every buffer.
  void fn(FnNode f);

  int rank() const { return rank_; }
  int size() const { return size_; }
  bool in_place() const { return in_place_; }

  /// Freeze into an immutable schedule valid for counts <= max_count.
  SchedPtr finish(Algo algo, int root, std::size_t max_count);

  /// Run the single-rank verifier battery (structural invariants, tag-window
  /// discipline, buffer hazards, reduce-order determinism) over the nodes
  /// emitted so far, without consuming the builder: a user schedule fails
  /// fast with a diagnostic instead of deadlocking the executor. Cross-rank
  /// checks (send/recv matching, global deadlock-freedom) need every rank's
  /// schedule — finish() each rank and call verify::verify_ranks
  /// (ir_verify.hpp).
  verify::Report verify() const;

 private:
  struct Access {
    Ref ref;
    bool writes = false;
  };
  void check_ref(const Ref& r) const;
  /// finish() minus the move-out: builds the immutable schedule from copies
  /// so verify() can materialize without consuming the builder.
  SchedPtr materialize(Algo algo, int root, std::size_t max_count) const;
  std::uint32_t emit(Node nd, std::initializer_list<Access> acc);
  void assign_tag(std::uint32_t id, int peer, bool is_send);
  void add_manual_edge(std::uint32_t from, std::uint32_t to);

  CollKind kind_;
  dtype::Datatype dt_;
  dtype::ReduceOp op_;
  bool in_place_;
  int rank_;
  int size_;
  std::uint32_t unit_;
  std::uint32_t nreq_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::vector<Access>> accesses_;  ///< per node, compile-only
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
  std::vector<Part> slots_;
  std::vector<FnNode> fns_;
  /// Per (peer, direction) emission history for tag assignment: the node
  /// ids of same-key messages, so the (n mod 64)-th reuse can serialize
  /// onto the previous holder of its tag.
  struct TagSeq {
    std::int32_t peer;
    bool is_send;
    std::vector<std::uint32_t> nodes;
  };
  std::vector<TagSeq> tagseqs_;
};

// ---- compiler + cache front end ----

/// Per-call options. `algo` forces a specific algorithm (bypassing cost-
/// model selection — forced compilations cache under their own key);
/// `use_cache = false` compiles fresh and leaves the cache untouched (the
/// bench's "uncached" series).
struct Opts {
  Algo algo = Algo::auto_;
  bool use_cache = true;
};

/// Cache observability (per communicator; zeros before first use).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;    ///< lookups that compiled a new schedule
  std::uint64_t rejects = 0;   ///< compiled uncached because the table was full
  std::uint32_t entries = 0;
  std::uint64_t scratch_hits = 0;    ///< arena reuse across cached schedules
  std::uint64_t scratch_misses = 0;  ///< arena allocations
};
CacheStats cache_stats(const Comm& comm);

/// Compile (or fetch from the comm's cache) and launch. These are what
/// coll::iallreduce / ibcast / ireduce route through; every other
/// collective has a single algorithm and launches from mpx::coll directly.
/// Non-contiguous datatypes compile uncached (the cache key records the
/// leaf type and size, not the layout); reductions require contiguous
/// types.
Request iallreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                   dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm,
                   Opts opts = {});
Request ibcast(void* buf, std::size_t count, dtype::Datatype dt, int root,
               const Comm& comm, Opts opts = {});
Request ireduce(const void* sendbuf, void* recvbuf, std::size_t count,
                dtype::Datatype dt, dtype::ReduceOp op, int root,
                const Comm& comm, Opts opts = {});

/// Persistent allreduce over a pinned schedule: compiles once, then every
/// start() re-arms the pinned cursor — no allocation, no planning, no
/// cache lookup per cycle.
Request allreduce_init(const void* sendbuf, void* recvbuf, std::size_t count,
                       dtype::Datatype dt, dtype::ReduceOp op,
                       const Comm& comm, Opts opts = {});

/// Compile one rank's schedule without a communicator (unit tests and
/// offline inspection). Deterministic: every rank compiling with the same
/// arguments selects the same algorithm. `count` is the schedule's vector
/// length: P*count for blocked kinds.
SchedPtr compile(CollKind kind, std::size_t count, dtype::Datatype dt,
                 dtype::ReduceOp op, bool in_place, int root, int rank,
                 int size, const net::CostModel& net, Algo force = Algo::auto_);

/// Execute an arbitrary schedule (compiled or hand-built via Builder) over
/// the given buffers. `sendbuf` may be null for in-place schedules.
Request launch(SchedPtr sched, const void* sendbuf, void* recvbuf,
               std::size_t count, const Comm& comm);

/// The algorithm `compile` would pick for this shape (observability).
Algo select_algo(CollKind kind, std::size_t bytes, int size,
                 const net::CostModel& net);

}  // namespace mpx::coll::ir
