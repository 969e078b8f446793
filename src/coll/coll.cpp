// Collective front ends: argument checks and in-place conventions, then one
// compiled schedule per call. Fixed-shape kinds fetch their schedule from
// the comm's cache (ir_front.cpp); the v-variants build a concrete schedule
// per call through the public Builder and launch it uncached. Blocking
// forms wait on the comm's stream.
#include "mpx/coll/coll.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "ir_internal.hpp"
#include "mpx/core/waittest.hpp"

namespace mpx::coll {

namespace {
const std::byte in_place_tag{};

void wait_blocking(Request r, const Comm& comm) {
  wait_on_stream(r, comm.stream());
}

/// Fetch-or-compile and launch a fixed-shape schedule whose vector is
/// `count` elements (P*count for blocked kinds).
Request run(ir::CollKind kind, const void* sendbuf, void* recvbuf,
            std::size_t count, dtype::Datatype dt, dtype::ReduceOp op,
            bool inp, int root, const Comm& comm) {
  ir::SchedPtr s = ir::get_or_compile(kind, count, std::move(dt), op, inp,
                                      root, comm, ir::Opts{});
  return ir::launch(std::move(s), sendbuf, recvbuf, count, comm);
}

/// Vector length of a blocked kind: one `count`-element block per rank.
std::size_t all_blocks(const Comm& comm, std::size_t count) {
  return static_cast<std::size_t>(comm.size()) * count;
}

void check_reduction(const dtype::Datatype& dt, const char* what) {
  expects(dt.valid() && dt.is_contiguous(), what);
}

// --- v-variant helpers ---

/// Elements the per-rank blocks at `displs` span: the vector a v-variant's
/// concrete schedule runs over.
std::size_t span_of(std::span<const std::size_t> counts,
                    std::span<const std::size_t> displs) {
  std::size_t v = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    v = std::max(v, displs[i] + counts[i]);
  }
  return v;
}

/// Elements [lo, lo + n) of a `v`-element vector. The schedule runs at
/// exactly `v`, so the block resolves exactly.
ir::Part elems(std::size_t v, std::size_t lo, std::size_t n) {
  expects(v <= UINT32_MAX, "v-collective: vector exceeds 2^32 elements");
  return ir::Part{static_cast<std::uint32_t>(v),
                  static_cast<std::uint32_t>(lo),
                  static_cast<std::uint32_t>(lo + n)};
}

/// A v-variant builder: its unit is the vector itself, so copies may move
/// a block to a different displacement.
ir::Builder v_builder(ir::CollKind kind, const dtype::Datatype& dt, bool inp,
                      std::size_t v, const Comm& comm) {
  return ir::Builder(kind, dt, dtype::ReduceOp::sum, inp, comm.rank(),
                     comm.size(),
                     static_cast<std::uint32_t>(std::max<std::size_t>(v, 1)));
}

void check_v_args(std::span<const std::size_t> counts,
                  std::span<const std::size_t> displs, const Comm& comm,
                  const char* what) {
  expects(static_cast<int>(counts.size()) == comm.size() &&
              static_cast<int>(displs.size()) == comm.size(),
          what);
}

}  // namespace

const void* const in_place = &in_place_tag;

// --- barrier ---

Request ibarrier(const Comm& comm) {
  return run(ir::CollKind::barrier, nullptr, nullptr, 0,
             dtype::Datatype::byte(), dtype::ReduceOp::sum, true, 0, comm);
}

void barrier(const Comm& comm) { wait_blocking(ibarrier(comm), comm); }

// --- bcast / reduce / allreduce (algorithm selection in ir_compile.cpp) ---

Request ibcast(void* buf, std::size_t count, dtype::Datatype dt, int root,
               const Comm& comm) {
  return ir::ibcast(buf, count, std::move(dt), root, comm);
}

void bcast(void* buf, std::size_t count, dtype::Datatype dt, int root,
           const Comm& comm) {
  wait_blocking(ibcast(buf, count, std::move(dt), root, comm), comm);
}

Request ireduce(const void* sendbuf, void* recvbuf, std::size_t count,
                dtype::Datatype dt, dtype::ReduceOp op, int root,
                const Comm& comm) {
  return ir::ireduce(sendbuf, recvbuf, count, std::move(dt), op, root, comm);
}

void reduce(const void* sendbuf, void* recvbuf, std::size_t count,
            dtype::Datatype dt, dtype::ReduceOp op, int root,
            const Comm& comm) {
  wait_blocking(ireduce(sendbuf, recvbuf, count, std::move(dt), op, root,
                        comm),
                comm);
}

Request iallreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                   dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm) {
  return ir::iallreduce(sendbuf, recvbuf, count, std::move(dt), op, comm);
}

void allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
               dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm) {
  wait_blocking(iallreduce(sendbuf, recvbuf, count, std::move(dt), op, comm),
                comm);
}

// --- blocked kinds: the schedule's vector is P*count ---

Request iallgather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                   void* recvbuf, const Comm& comm) {
  const bool inp = sendbuf == in_place;
  return run(ir::CollKind::allgather, inp ? nullptr : sendbuf, recvbuf,
             all_blocks(comm, count), std::move(dt), dtype::ReduceOp::sum,
             inp, 0, comm);
}

void allgather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
               void* recvbuf, const Comm& comm) {
  wait_blocking(iallgather(sendbuf, count, std::move(dt), recvbuf, comm),
                comm);
}

Request igather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                void* recvbuf, int root, const Comm& comm) {
  expects(root >= 0 && root < comm.size(), "igather: root out of range");
  const bool at_root = comm.rank() == root;
  const bool inp = at_root && sendbuf == in_place;
  return run(ir::CollKind::gather, inp ? nullptr : sendbuf,
             at_root ? recvbuf : nullptr, all_blocks(comm, count),
             std::move(dt), dtype::ReduceOp::sum, inp, root, comm);
}

void gather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
            void* recvbuf, int root, const Comm& comm) {
  wait_blocking(igather(sendbuf, count, std::move(dt), recvbuf, root, comm),
                comm);
}

Request iscatter(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                 void* recvbuf, int root, const Comm& comm) {
  expects(root >= 0 && root < comm.size(), "iscatter: root out of range");
  const bool at_root = comm.rank() == root;
  const bool inp = at_root && recvbuf == in_place;
  // In place, the root's P blocks are the schedule's recv space; the
  // schedule only reads them.
  void* rbuf = inp ? const_cast<void*>(sendbuf) : recvbuf;
  return run(ir::CollKind::scatter, at_root && !inp ? sendbuf : nullptr,
             rbuf, all_blocks(comm, count), std::move(dt),
             dtype::ReduceOp::sum, inp, root, comm);
}

void scatter(const void* sendbuf, std::size_t count, dtype::Datatype dt,
             void* recvbuf, int root, const Comm& comm) {
  wait_blocking(iscatter(sendbuf, count, std::move(dt), recvbuf, root, comm),
                comm);
}

Request ialltoall(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                  void* recvbuf, const Comm& comm) {
  expects(sendbuf != in_place, "ialltoall: in_place is not supported");
  return run(ir::CollKind::alltoall, sendbuf, recvbuf,
             all_blocks(comm, count), std::move(dt), dtype::ReduceOp::sum,
             false, 0, comm);
}

void alltoall(const void* sendbuf, std::size_t count, dtype::Datatype dt,
              void* recvbuf, const Comm& comm) {
  wait_blocking(ialltoall(sendbuf, count, std::move(dt), recvbuf, comm),
                comm);
}

Request ireduce_scatter_block(const void* sendbuf, void* recvbuf,
                              std::size_t recvcount, dtype::Datatype dt,
                              dtype::ReduceOp op, const Comm& comm) {
  check_reduction(dt, "ireduce_scatter_block: requires contiguous datatypes");
  const bool inp = sendbuf == in_place;
  return run(ir::CollKind::reduce_scatter_block, inp ? nullptr : sendbuf,
             recvbuf, all_blocks(comm, recvcount), std::move(dt), op, inp, 0,
             comm);
}

void reduce_scatter_block(const void* sendbuf, void* recvbuf,
                          std::size_t recvcount, dtype::Datatype dt,
                          dtype::ReduceOp op, const Comm& comm) {
  wait_blocking(ireduce_scatter_block(sendbuf, recvbuf, recvcount,
                                      std::move(dt), op, comm),
                comm);
}

// --- scan / exscan ---

Request iscan(const void* sendbuf, void* recvbuf, std::size_t count,
              dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm) {
  check_reduction(dt, "iscan: requires contiguous datatypes");
  const bool inp = sendbuf == in_place;
  return run(ir::CollKind::scan, inp ? nullptr : sendbuf, recvbuf, count,
             std::move(dt), op, inp, 0, comm);
}

void scan(const void* sendbuf, void* recvbuf, std::size_t count,
          dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm) {
  wait_blocking(iscan(sendbuf, recvbuf, count, std::move(dt), op, comm),
                comm);
}

Request iexscan(const void* sendbuf, void* recvbuf, std::size_t count,
                dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm) {
  check_reduction(dt, "iexscan: requires contiguous datatypes");
  const bool inp = sendbuf == in_place;
  return run(ir::CollKind::exscan, inp ? nullptr : sendbuf, recvbuf, count,
             std::move(dt), op, inp, 0, comm);
}

void exscan(const void* sendbuf, void* recvbuf, std::size_t count,
            dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm) {
  wait_blocking(iexscan(sendbuf, recvbuf, count, std::move(dt), op, comm),
                comm);
}

// --- persistent collectives: one pinned cursor per handle ---

Request barrier_init(const Comm& comm) {
  expects(comm.valid(), "barrier_init: invalid communicator");
  return ir::persistent_launch(
      ir::get_or_compile(ir::CollKind::barrier, 0, dtype::Datatype::byte(),
                         dtype::ReduceOp::sum, true, 0, comm, ir::Opts{}),
      nullptr, nullptr, 0, comm);
}

Request bcast_init(void* buf, std::size_t count, dtype::Datatype dt,
                   int root, const Comm& comm) {
  expects(comm.valid() && root >= 0 && root < comm.size() &&
              (buf != nullptr || count == 0),
          "bcast_init: bad arguments");
  return ir::persistent_launch(
      ir::get_or_compile(ir::CollKind::bcast, count, std::move(dt),
                         dtype::ReduceOp::sum, true, root, comm, ir::Opts{}),
      nullptr, buf, count, comm);
}

Request allreduce_init(const void* sendbuf, void* recvbuf, std::size_t count,
                       dtype::Datatype dt, dtype::ReduceOp op,
                       const Comm& comm) {
  return ir::allreduce_init(sendbuf, recvbuf, count, std::move(dt), op,
                            comm);
}

// --- v-variants: concrete schedules over a vector spanning every block ---

Request igatherv(const void* sendbuf, std::size_t sendcount,
                 dtype::Datatype dt, void* recvbuf,
                 std::span<const std::size_t> recvcounts,
                 std::span<const std::size_t> displs, int root,
                 const Comm& comm) {
  expects(root >= 0 && root < comm.size(), "igatherv: root out of range");
  const int r = comm.rank();
  if (r != root) {
    ir::Builder b = v_builder(ir::CollKind::gather, dt, false, sendcount,
                              comm);
    if (sendcount != 0) b.send(ir::send_buf(ir::full()), root);
    return ir::launch(b.finish(ir::Algo::linear, root, sendcount), sendbuf,
                      nullptr, sendcount, comm);
  }
  check_v_args(recvcounts, displs, comm,
               "igatherv: counts/displs must have one entry per rank");
  const bool inp = sendbuf == in_place;
  const auto ur = static_cast<std::size_t>(r);
  const std::size_t v =
      std::max(span_of(recvcounts, displs), inp ? 0 : displs[ur] + sendcount);
  ir::Builder b = v_builder(ir::CollKind::gather, dt, inp, v, comm);
  if (!inp && sendcount != 0) {
    b.copy(ir::send_buf(elems(v, 0, sendcount)),
           ir::recv_buf(elems(v, displs[ur], sendcount)));
  }
  for (int i = 0; i < comm.size(); ++i) {
    const auto ui = static_cast<std::size_t>(i);
    if (i != r && recvcounts[ui] != 0) {
      b.recv(ir::recv_buf(elems(v, displs[ui], recvcounts[ui])), i);
    }
  }
  return ir::launch(b.finish(ir::Algo::linear, root, v),
                    inp ? nullptr : sendbuf, recvbuf, v, comm);
}

void gatherv(const void* sendbuf, std::size_t sendcount, dtype::Datatype dt,
             void* recvbuf, std::span<const std::size_t> recvcounts,
             std::span<const std::size_t> displs, int root,
             const Comm& comm) {
  wait_blocking(igatherv(sendbuf, sendcount, std::move(dt), recvbuf,
                         recvcounts, displs, root, comm),
                comm);
}

Request iscatterv(const void* sendbuf,
                  std::span<const std::size_t> sendcounts,
                  std::span<const std::size_t> displs, dtype::Datatype dt,
                  void* recvbuf, std::size_t recvcount, int root,
                  const Comm& comm) {
  expects(root >= 0 && root < comm.size(), "iscatterv: root out of range");
  const int r = comm.rank();
  if (r != root) {
    ir::Builder b = v_builder(ir::CollKind::scatter, dt, false, recvcount,
                              comm);
    if (recvcount != 0) b.recv(ir::recv_buf(ir::full()), root);
    return ir::launch(b.finish(ir::Algo::linear, root, recvcount), nullptr,
                      recvbuf, recvcount, comm);
  }
  check_v_args(sendcounts, displs, comm,
               "iscatterv: counts/displs must have one entry per rank");
  const bool inp = recvbuf == in_place;
  const auto ur = static_cast<std::size_t>(r);
  const std::size_t own = sendcounts[ur];
  const std::size_t v = span_of(sendcounts, displs);
  ir::Builder b = v_builder(ir::CollKind::scatter, dt, false, v, comm);
  for (int i = 0; i < comm.size(); ++i) {
    const auto ui = static_cast<std::size_t>(i);
    if (i != r && sendcounts[ui] != 0) {
      b.send(ir::send_buf(elems(v, displs[ui], sendcounts[ui])), i);
    }
  }
  if (!inp && own != 0) {
    b.copy(ir::send_buf(elems(v, displs[ur], own)),
           ir::recv_buf(elems(v, 0, own)));
  }
  return ir::launch(b.finish(ir::Algo::linear, root, v), sendbuf,
                    inp ? nullptr : recvbuf, v, comm);
}

void scatterv(const void* sendbuf, std::span<const std::size_t> sendcounts,
              std::span<const std::size_t> displs, dtype::Datatype dt,
              void* recvbuf, std::size_t recvcount, int root,
              const Comm& comm) {
  wait_blocking(iscatterv(sendbuf, sendcounts, displs, std::move(dt),
                          recvbuf, recvcount, root, comm),
                comm);
}

Request iallgatherv(const void* sendbuf, std::size_t sendcount,
                    dtype::Datatype dt, void* recvbuf,
                    std::span<const std::size_t> recvcounts,
                    std::span<const std::size_t> displs, const Comm& comm) {
  check_v_args(recvcounts, displs, comm,
               "iallgatherv: counts/displs must have one entry per rank");
  const int P = comm.size(), r = comm.rank();
  const bool inp = sendbuf == in_place;
  const std::size_t v =
      std::max(span_of(recvcounts, displs),
               inp ? 0 : displs[static_cast<std::size_t>(r)] + sendcount);
  ir::Builder b = v_builder(ir::CollKind::allgather, dt, inp, v, comm);
  const auto blk = [&](int i) {
    const auto u = static_cast<std::size_t>((i % P + P) % P);
    return ir::recv_buf(elems(v, displs[u], recvcounts[u]));
  };
  const auto cnt = [&](int i) {
    return recvcounts[static_cast<std::size_t>((i % P + P) % P)];
  };
  if (!inp && sendcount != 0) {
    b.copy(ir::send_buf(elems(v, 0, sendcount)),
           ir::recv_buf(
               elems(v, displs[static_cast<std::size_t>(r)], sendcount)));
  }
  // Ring with per-block counts: step s forwards block r-s and receives
  // block r-s-1; empty blocks are skipped on both ends alike.
  const int next = (r + 1) % P, prev = (r + P - 1) % P;
  for (int s = 0; s < P - 1; ++s) {
    if (cnt(r - s) != 0) b.send(blk(r - s), next);
    if (cnt(r - s - 1) != 0) b.recv(blk(r - s - 1), prev);
  }
  return ir::launch(b.finish(ir::Algo::ring, 0, v), inp ? nullptr : sendbuf,
                    recvbuf, v, comm);
}

void allgatherv(const void* sendbuf, std::size_t sendcount,
                dtype::Datatype dt, void* recvbuf,
                std::span<const std::size_t> recvcounts,
                std::span<const std::size_t> displs, const Comm& comm) {
  wait_blocking(iallgatherv(sendbuf, sendcount, std::move(dt), recvbuf,
                            recvcounts, displs, comm),
                comm);
}

}  // namespace mpx::coll
