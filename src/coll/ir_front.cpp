// Cache front end of the collective schedule compiler: the per-comm
// SchedCache lives in the communicator's extension slot, and every
// collective entry point resolves (kind, algorithm, count class) to a key,
// fetches or compiles the schedule, and hands it to the executor. Steady
// state is find() -> launch(): one acquire load, a short scan, and pooled
// cursor arming — no planning, no allocation.
#include <memory>
#include <utility>

#include "ir_internal.hpp"
#include "mpx/base/cvar.hpp"
#include "mpx/coll/coll.hpp"
#include "mpx/coll/ir_verify.hpp"
#include "mpx/core/world.hpp"

namespace mpx::coll::ir {
namespace {

std::unique_ptr<core_detail::CommExt> make_coll_ext(void* /*arg*/) {
  return std::make_unique<CollCommExt>(static_cast<std::size_t>(
      base::cvar_int("MPX_COLL_CACHE_CAP", 64)));
}

/// MPX_COLL_VERIFY gate: before a freshly compiled schedule may enter the
/// cache, reconstruct what every peer rank compiled for the same point
/// (compilation is deterministic, so the peers' schedules are derivable
/// locally) and run the full cross-rank verifier. A rejected set throws
/// instead of caching a deadlock. Compile-path only — cache hits never
/// come here, so the steady state is untouched.
void verify_before_insert(CollKind kind, std::size_t count,
                          const dtype::Datatype& dt, dtype::ReduceOp op,
                          bool inp, int root, int size,
                          const net::CostModel& net, Algo algo,
                          const SchedPtr& mine) {
  std::vector<SchedPtr> ranks(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    if (r == mine->rank) {
      ranks[static_cast<std::size_t>(r)] = mine;
      continue;
    }
    // Rooted kinds are in-place only at the root; every other shape is
    // uniform.
    const bool rooted = kind == CollKind::reduce ||
                        kind == CollKind::gather ||
                        kind == CollKind::scatter;
    const bool inp_r = rooted ? (r == root && inp) : inp;
    ranks[static_cast<std::size_t>(r)] =
        compile(kind, count, dt, op, inp_r, root, r, size, net, algo);
  }
  // Fault-injection hook for tests and the offline sweep: mutate a clone
  // of this rank's schedule (never the one that would execute) and prove
  // the verifier catches it.
  const std::string fault = base::cvar_string("MPX_COLL_VERIFY_FAULT", "");
  if (!fault.empty()) {
    auto mut = verify::clone(*mine);
    if (verify::inject_fault(*mut, fault)) {
      ranks[static_cast<std::size_t>(mine->rank)] = std::move(mut);
    }
  }
  verify::Report rep = verify::verify_ranks(ranks);
  if (!rep.ok()) throw verify::ScheduleVerifyError(std::move(rep));
}

}  // namespace

SchedPtr get_or_compile(CollKind kind, std::size_t count, dtype::Datatype dt,
                        dtype::ReduceOp op, bool inp, int root,
                        const Comm& comm, const Opts& opts) {
  const std::size_t bytes = count * dt.size();
  const net::CostModel& net = comm.world().config().net;
  const Algo algo = resolve_algo(kind, bytes, comm.size(), net, opts.algo);
  if (!opts.use_cache || !dt.is_contiguous()) {
    return compile(kind, count, dt, op, inp, root, comm.rank(), comm.size(),
                   net, algo);
  }
  CollCommExt& ext = coll_ext(comm);
  SchedKey k;
  k.kind = kind;
  k.algo = algo;
  k.leaf = dt.leaf();
  k.esz = static_cast<std::uint32_t>(dt.size());
  k.op = op;
  k.cls = static_cast<std::uint8_t>(count_class(bytes));
  k.in_place = inp;
  k.root = root;
  k.rank = comm.rank();
  // Any schedule cached under this key admits `count`: schedules are
  // compiled for their class's byte bound, and count_class(bytes) == k.cls
  // implies count <= max_count.
  if (SchedPtr s = ext.cache.find(k)) return s;
  SchedPtr s = compile(kind, count, dt, op, inp, root, comm.rank(),
                       comm.size(), net, algo);
  if (base::cvar_bool("MPX_COLL_VERIFY", false)) {
    verify_before_insert(kind, count, dt, op, inp, root, comm.size(), net,
                         algo, s);
  }
  if (SchedPtr pub = ext.cache.insert(k, s)) return pub;
  return s;  // table at capacity: run the private copy uncached
}

CollCommExt& coll_ext(const Comm& comm) {
  core_detail::CommExt* e = core_detail::comm_ext(comm);
  if (e == nullptr) {
    e = core_detail::comm_ext_get_or_install(comm, &make_coll_ext, nullptr);
  }
  return *static_cast<CollCommExt*>(e);
}

CacheStats cache_stats(const Comm& comm) {
  expects(comm.valid(), "coll ir cache_stats: invalid communicator");
  CacheStats out;
  auto* e = static_cast<CollCommExt*>(core_detail::comm_ext(comm));
  if (e == nullptr) return out;  // comm never used the compiled path
  out.hits = e->cache.hits();
  out.misses = e->cache.misses();
  out.rejects = e->cache.rejects();
  out.entries = e->cache.entries();
  for (const SchedPtr& s : e->cache.snapshot()) {
    const base::PoolStats st = s->arena_pool.stats();
    out.scratch_hits += st.hits;
    out.scratch_misses += st.misses;
  }
  return out;
}

Request iallreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                   dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm,
                   Opts opts) {
  expects(comm.valid() && (recvbuf != nullptr || count == 0),
          "coll ir iallreduce: bad arguments");
  expects(dt.valid() && dt.is_contiguous(),
          "coll ir iallreduce: reductions require contiguous datatypes");
  const bool inp = sendbuf == coll::in_place;
  expects(inp || sendbuf != nullptr || count == 0,
          "coll ir iallreduce: null sendbuf");
  SchedPtr s = get_or_compile(CollKind::allreduce, count, std::move(dt), op,
                              inp, /*root=*/0, comm, opts);
  return launch(std::move(s), inp ? nullptr : sendbuf, recvbuf, count, comm);
}

Request ibcast(void* buf, std::size_t count, dtype::Datatype dt, int root,
               const Comm& comm, Opts opts) {
  expects(comm.valid() && (buf != nullptr || count == 0) && root >= 0 &&
              root < comm.size(),
          "coll ir ibcast: bad arguments");
  expects(dt.valid(), "coll ir ibcast: invalid datatype");
  // Bcast data lives in the recv space; there is no send buffer.
  SchedPtr s = get_or_compile(CollKind::bcast, count, std::move(dt),
                              dtype::ReduceOp::sum, /*inp=*/true, root, comm,
                              opts);
  return launch(std::move(s), nullptr, buf, count, comm);
}

Request ireduce(const void* sendbuf, void* recvbuf, std::size_t count,
                dtype::Datatype dt, dtype::ReduceOp op, int root,
                const Comm& comm, Opts opts) {
  expects(comm.valid() && root >= 0 && root < comm.size(),
          "coll ir ireduce: bad arguments");
  expects(dt.valid() && dt.is_contiguous(),
          "coll ir ireduce: reductions require contiguous datatypes");
  const bool inp = sendbuf == coll::in_place;
  // MPI semantics: in-place only at the root (the contribution is in
  // recvbuf there); non-roots contribute sendbuf and may pass a null
  // recvbuf.
  expects(!inp || comm.rank() == root,
          "coll ir ireduce: in_place is root-only");
  expects(inp || sendbuf != nullptr || count == 0,
          "coll ir ireduce: null sendbuf");
  expects(comm.rank() != root || recvbuf != nullptr || count == 0,
          "coll ir ireduce: null recvbuf at root");
  SchedPtr s = get_or_compile(CollKind::reduce, count, std::move(dt), op,
                              inp, root, comm, opts);
  return launch(std::move(s), inp ? nullptr : sendbuf, recvbuf, count, comm);
}

Request allreduce_init(const void* sendbuf, void* recvbuf, std::size_t count,
                       dtype::Datatype dt, dtype::ReduceOp op,
                       const Comm& comm, Opts opts) {
  expects(comm.valid() && (recvbuf != nullptr || count == 0),
          "coll ir allreduce_init: bad arguments");
  expects(dt.valid() && dt.is_contiguous(),
          "coll ir allreduce_init: reductions require contiguous datatypes");
  const bool inp = sendbuf == coll::in_place;
  expects(inp || sendbuf != nullptr || count == 0,
          "coll ir allreduce_init: null sendbuf");
  SchedPtr s = get_or_compile(CollKind::allreduce, count, std::move(dt), op,
                              inp, /*root=*/0, comm, opts);
  return persistent_launch(std::move(s), inp ? nullptr : sendbuf, recvbuf,
                           count, comm);
}

}  // namespace mpx::coll::ir
