#include "mpx/coll/topo.hpp"

#include <algorithm>
#include <cstdint>

#include "mpx/coll/ir.hpp"
#include "mpx/core/waittest.hpp"

namespace mpx::coll {

Cart Cart::create(const Comm& comm, std::span<const int> dims,
                  std::span<const int> periodic) {
  expects(comm.valid(), "Cart::create: invalid communicator");
  expects(!dims.empty() && periodic.size() == dims.size(),
          "Cart::create: dims/periodic mismatch");
  int total = 1;
  for (int d : dims) {
    expects(d >= 1, "Cart::create: dimension must be >= 1");
    total *= d;
  }
  expects(total == comm.size(),
          "Cart::create: product of dims must equal communicator size");
  Cart c;
  c.comm_ = comm;
  c.dims_.assign(dims.begin(), dims.end());
  c.periodic_.assign(periodic.begin(), periodic.end());
  return c;
}

std::vector<int> Cart::coords(int rank) const {
  expects(valid() && rank >= 0 && rank < comm_.size(),
          "Cart::coords: rank out of range");
  std::vector<int> out(dims_.size());
  // Row-major: last dimension varies fastest.
  for (std::size_t d = dims_.size(); d-- > 0;) {
    out[d] = rank % dims_[d];
    rank /= dims_[d];
  }
  return out;
}

int Cart::rank_of(std::span<const int> coords) const {
  expects(valid() && coords.size() == dims_.size(),
          "Cart::rank_of: dimension mismatch");
  int rank = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    int c = coords[d];
    if (c < 0 || c >= dims_[d]) {
      if (periodic_[d] == 0) return -1;  // off-grid (MPI_PROC_NULL)
      c = ((c % dims_[d]) + dims_[d]) % dims_[d];
    }
    rank = rank * dims_[d] + c;
  }
  return rank;
}

Cart::Shift Cart::shift(int dim, int disp) const {
  expects(valid() && dim >= 0 && dim < ndims(), "Cart::shift: bad dimension");
  std::vector<int> me = coords();
  Shift s;
  std::vector<int> c = me;
  c[static_cast<std::size_t>(dim)] += disp;
  s.dest = rank_of(c);
  c = me;
  c[static_cast<std::size_t>(dim)] -= disp;
  s.source = rank_of(c);
  return s;
}

std::vector<int> Cart::neighbors() const {
  expects(valid(), "Cart::neighbors: invalid topology");
  std::vector<int> out;
  out.reserve(2 * dims_.size());
  for (int d = 0; d < ndims(); ++d) {
    const Shift s = shift(d, 1);
    out.push_back(s.source);  // negative direction neighbor
    out.push_back(s.dest);    // positive direction neighbor
  }
  return out;
}

std::vector<int> dims_create(int nranks, int ndims) {
  expects(nranks >= 1 && ndims >= 1, "dims_create: bad arguments");
  std::vector<int> dims(static_cast<std::size_t>(ndims), 1);
  // Greedy: repeatedly assign the largest remaining prime factor to the
  // currently-smallest dimension, yielding balanced near-cubic grids.
  int n = nranks;
  std::vector<int> factors;
  for (int f = 2; f * f <= n; ++f) {
    while (n % f == 0) {
      factors.push_back(f);
      n /= f;
    }
  }
  if (n > 1) factors.push_back(n);
  std::sort(factors.rbegin(), factors.rend());
  for (int f : factors) {
    auto it = std::min_element(dims.begin(), dims.end());
    *it *= f;
  }
  std::sort(dims.rbegin(), dims.rend());
  return dims;
}

namespace {

/// Both buffers are blocked by neighbor slot, so the schedule's vector is
/// slots*count elements; the allgather send buffer is block 0. Built per
/// call (uncached): the grid shape lives in the Cart, not the cache key.
Request neighbor_exchange(const void* sendbuf, std::size_t count,
                          const dtype::Datatype& dt, void* recvbuf,
                          const Cart& cart, bool alltoall) {
  expects(cart.valid(), "neighbor collective: invalid topology");
  const Comm& comm = cart.comm();
  const int me = comm.rank();
  const std::vector<int> nbrs = cart.neighbors();
  const auto slots = static_cast<std::uint32_t>(nbrs.size());
  ir::Builder b(alltoall ? ir::CollKind::alltoall : ir::CollKind::allgather,
                dt, dtype::ReduceOp::sum, false, me, comm.size(), slots);
  const auto src = [&](std::uint32_t j) {
    return ir::send_buf(ir::block(slots, alltoall ? j : 0));
  };
  // -1 neighbors (MPI_PROC_NULL) are skipped and their slots untouched.
  for (std::uint32_t j = 0; j < slots; ++j) {
    if (nbrs[j] >= 0 && nbrs[j] != me) b.send(src(j), nbrs[j]);
  }
  // A message sent via slot s lands in the receiver's slot s^1 (negative
  // <-> positive). In degenerate periodic grids one peer fills both slots
  // of a dimension, and the Builder tags messages per (peer, direction) in
  // emission order, so receives follow the SENDER's slot order. A
  // self-neighbor's edge is a local copy.
  for (std::uint32_t s = 0; s < slots; ++s) {
    const std::uint32_t j = s ^ 1;
    if (nbrs[j] < 0) continue;
    if (nbrs[j] == me) {
      b.copy(src(s), ir::recv_buf(ir::block(slots, j)));
    } else {
      b.recv(ir::recv_buf(ir::block(slots, j)), nbrs[j]);
    }
  }
  const std::size_t v = slots * count;
  return ir::launch(b.finish(ir::Algo::pairwise, 0, v), sendbuf, recvbuf, v,
                    comm);
}

}  // namespace

Request ineighbor_allgather(const void* sendbuf, std::size_t count,
                            dtype::Datatype dt, void* recvbuf,
                            const Cart& cart) {
  return neighbor_exchange(sendbuf, count, dt, recvbuf, cart, false);
}

void neighbor_allgather(const void* sendbuf, std::size_t count,
                        dtype::Datatype dt, void* recvbuf, const Cart& cart) {
  Request r = ineighbor_allgather(sendbuf, count, std::move(dt), recvbuf,
                                  cart);
  wait_on_stream(r, cart.comm().stream());
}

Request ineighbor_alltoall(const void* sendbuf, std::size_t count,
                           dtype::Datatype dt, void* recvbuf,
                           const Cart& cart) {
  return neighbor_exchange(sendbuf, count, dt, recvbuf, cart, true);
}

void neighbor_alltoall(const void* sendbuf, std::size_t count,
                       dtype::Datatype dt, void* recvbuf, const Cart& cart) {
  Request r = ineighbor_alltoall(sendbuf, count, std::move(dt), recvbuf,
                                 cart);
  wait_on_stream(r, cart.comm().stream());
}

}  // namespace mpx::coll
