// mpx/coll/topo.hpp
//
// Cartesian process topologies and neighborhood collectives
// (MPI_Cart_create / MPI_Cart_shift / MPI_Neighbor_allgather analogs) —
// the substrate stencil applications use for halo exchange. Like the rest
// of mpx::coll, a neighborhood collective is a compiled schedule run by the
// coll-exec stage of the collated progress engine.
#pragma once

#include <span>
#include <vector>

#include "mpx/core/comm.hpp"

namespace mpx::coll {

/// Cartesian view of a communicator. Ranks are mapped row-major
/// (C order, last dimension fastest), no reordering.
class Cart {
 public:
  /// Collective over `comm`: every member calls with identical dims and
  /// periodicity. The product of dims must equal comm.size().
  static Cart create(const Comm& comm, std::span<const int> dims,
                     std::span<const int> periodic);

  Cart() = default;
  bool valid() const { return comm_.valid(); }
  const Comm& comm() const { return comm_; }
  int ndims() const { return static_cast<int>(dims_.size()); }
  std::span<const int> dims() const { return dims_; }

  /// Coordinates of a communicator rank (MPI_Cart_coords).
  std::vector<int> coords(int rank) const;
  /// This member's own coordinates.
  std::vector<int> coords() const { return coords(comm_.rank()); }

  /// Communicator rank at `coords` (MPI_Cart_rank); -1 when out of range in
  /// a non-periodic dimension.
  int rank_of(std::span<const int> coords) const;

  /// MPI_Cart_shift: the (source, dest) pair for a displacement along one
  /// dimension as seen by the calling rank; -1 marks an off-grid neighbor
  /// at a non-periodic boundary (MPI_PROC_NULL).
  struct Shift {
    int source = -1;
    int dest = -1;
  };
  Shift shift(int dim, int disp) const;

  /// The 2*ndims neighbor ranks in dimension order, (negative, positive)
  /// per dimension — the MPI neighborhood-collective ordering. Entries may
  /// be -1 at non-periodic boundaries.
  std::vector<int> neighbors() const;

 private:
  Comm comm_;
  std::vector<int> dims_;
  std::vector<int> periodic_;
};

/// MPI_Dims_create analog: factor `nranks` into `ndims` balanced dimensions.
std::vector<int> dims_create(int nranks, int ndims);

/// Neighborhood allgather (MPI_Neighbor_allgather): every rank sends
/// `count` elements to each of its 2*ndims cart neighbors and receives
/// into recvbuf slot j from neighbor j (neighbors() order). Slots of -1
/// neighbors are left untouched.
Request ineighbor_allgather(const void* sendbuf, std::size_t count,
                            dtype::Datatype dt, void* recvbuf,
                            const Cart& cart);
void neighbor_allgather(const void* sendbuf, std::size_t count,
                        dtype::Datatype dt, void* recvbuf, const Cart& cart);

/// Neighborhood alltoall (MPI_Neighbor_alltoall): sendbuf slot j goes to
/// neighbor j; recvbuf slot j comes from neighbor j.
Request ineighbor_alltoall(const void* sendbuf, std::size_t count,
                           dtype::Datatype dt, void* recvbuf,
                           const Cart& cart);
void neighbor_alltoall(const void* sendbuf, std::size_t count,
                       dtype::Datatype dt, void* recvbuf, const Cart& cart);

}  // namespace mpx::coll
