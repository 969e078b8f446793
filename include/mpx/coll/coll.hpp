// mpx/coll/coll.hpp
//
// Nonblocking (and blocking) collective operations. Every collective runs
// as a compiled schedule (mpx::coll::ir) on the coll-exec progress stage:
// one executor, one per-communicator schedule cache, one verifier.
// Algorithms (MPX_COLL_ALGO or ir::Opts force a choice where there is one):
//
//   barrier               — dissemination
//   bcast                 — knomial tree | knomial scatter + ring allgather
//   reduce                — knomial tree (commutative ops)
//   allreduce             — recursive doubling | ring | Rabenseifner (rsag)
//   allgather             — ring
//   gather / scatter      — linear to / from the root
//   alltoall              — pairwise (all exchanges posted at once)
//   reduce_scatter_block  — ring
//   scan / exscan         — chain
//   v-variants, neighbor  — concrete per-call schedules (not cached)
//
// All "count"s are per-rank element counts of `dt`, MPI-style. Any valid
// datatype works for data movement (elements sit `extent` bytes apart);
// reductions require contiguous datatypes and assume commutative
// operators (all built-in ReduceOps are commutative). Zero counts may pass
// null buffers.
#pragma once

#include <span>

#include "mpx/core/comm.hpp"
#include "mpx/dtype/reduce_op.hpp"

namespace mpx::coll {

/// MPI_IN_PLACE: pass as `sendbuf` (as `recvbuf` at a scatter root) to
/// take the contribution from, and leave the result in, the other buffer.
/// In-place gather/scatter are root-only; alltoall has no in-place form.
extern const void* const in_place;

Request ibarrier(const Comm& comm);
void barrier(const Comm& comm);

Request ibcast(void* buf, std::size_t count, dtype::Datatype dt, int root,
               const Comm& comm);
void bcast(void* buf, std::size_t count, dtype::Datatype dt, int root,
           const Comm& comm);

Request ireduce(const void* sendbuf, void* recvbuf, std::size_t count,
                dtype::Datatype dt, dtype::ReduceOp op, int root,
                const Comm& comm);
void reduce(const void* sendbuf, void* recvbuf, std::size_t count,
            dtype::Datatype dt, dtype::ReduceOp op, int root,
            const Comm& comm);

Request iallreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                   dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm);
void allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
               dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm);

Request iallgather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                   void* recvbuf, const Comm& comm);
void allgather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
               void* recvbuf, const Comm& comm);

Request igather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                void* recvbuf, int root, const Comm& comm);
void gather(const void* sendbuf, std::size_t count, dtype::Datatype dt,
            void* recvbuf, int root, const Comm& comm);

Request iscatter(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                 void* recvbuf, int root, const Comm& comm);
void scatter(const void* sendbuf, std::size_t count, dtype::Datatype dt,
             void* recvbuf, int root, const Comm& comm);

Request ialltoall(const void* sendbuf, std::size_t count, dtype::Datatype dt,
                  void* recvbuf, const Comm& comm);
void alltoall(const void* sendbuf, std::size_t count, dtype::Datatype dt,
              void* recvbuf, const Comm& comm);

/// Reduce size*recvcount elements, leaving block r (recvcount elements) on
/// rank r (MPI_Reduce_scatter_block). Ring reduce-scatter. In place, the
/// input is recvbuf's size*recvcount elements and the result overwrites
/// its first block.
Request ireduce_scatter_block(const void* sendbuf, void* recvbuf,
                              std::size_t recvcount, dtype::Datatype dt,
                              dtype::ReduceOp op, const Comm& comm);
void reduce_scatter_block(const void* sendbuf, void* recvbuf,
                          std::size_t recvcount, dtype::Datatype dt,
                          dtype::ReduceOp op, const Comm& comm);

/// Inclusive prefix reduction (MPI_Scan): rank r receives
/// op(x_0, ..., x_r). Chain.
Request iscan(const void* sendbuf, void* recvbuf, std::size_t count,
              dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm);
void scan(const void* sendbuf, void* recvbuf, std::size_t count,
          dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm);

/// Exclusive prefix reduction (MPI_Exscan): rank r receives
/// op(x_0, ..., x_{r-1}); rank 0's recvbuf is left untouched.
Request iexscan(const void* sendbuf, void* recvbuf, std::size_t count,
                dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm);
void exscan(const void* sendbuf, void* recvbuf, std::size_t count,
            dtype::Datatype dt, dtype::ReduceOp op, const Comm& comm);

// --- variable-count collectives (v-variants) ---
// counts/displs are per communicator rank, in elements of dt; displacements
// index into the root's (gatherv/scatterv) or everyone's (allgatherv)
// buffer, MPI-style.

Request igatherv(const void* sendbuf, std::size_t sendcount,
                 dtype::Datatype dt, void* recvbuf,
                 std::span<const std::size_t> recvcounts,
                 std::span<const std::size_t> displs, int root,
                 const Comm& comm);
void gatherv(const void* sendbuf, std::size_t sendcount, dtype::Datatype dt,
             void* recvbuf, std::span<const std::size_t> recvcounts,
             std::span<const std::size_t> displs, int root, const Comm& comm);

Request iscatterv(const void* sendbuf,
                  std::span<const std::size_t> sendcounts,
                  std::span<const std::size_t> displs, dtype::Datatype dt,
                  void* recvbuf, std::size_t recvcount, int root,
                  const Comm& comm);
void scatterv(const void* sendbuf, std::span<const std::size_t> sendcounts,
              std::span<const std::size_t> displs, dtype::Datatype dt,
              void* recvbuf, std::size_t recvcount, int root,
              const Comm& comm);

// --- persistent collectives (MPI-4 MPI_*_init analogs) ---
// Initialize once (collective: every member must call, in the same order),
// then arm each cycle with mpx::start() and complete it with wait/test.
// Buffer bindings are fixed at init time.

Request barrier_init(const Comm& comm);
Request bcast_init(void* buf, std::size_t count, dtype::Datatype dt,
                   int root, const Comm& comm);
Request allreduce_init(const void* sendbuf, void* recvbuf, std::size_t count,
                       dtype::Datatype dt, dtype::ReduceOp op,
                       const Comm& comm);

Request iallgatherv(const void* sendbuf, std::size_t sendcount,
                    dtype::Datatype dt, void* recvbuf,
                    std::span<const std::size_t> recvcounts,
                    std::span<const std::size_t> displs, const Comm& comm);
void allgatherv(const void* sendbuf, std::size_t sendcount,
                dtype::Datatype dt, void* recvbuf,
                std::span<const std::size_t> recvcounts,
                std::span<const std::size_t> displs, const Comm& comm);

}  // namespace mpx::coll
