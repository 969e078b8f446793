// Cartesian topology + neighborhood collective tests, including the
// degenerate grids (size-2 periodic rings, self-neighbors) that stress the
// per-edge tagging.
#include <gtest/gtest.h>

#include <vector>

#include "mpx/coll/topo.hpp"
#include "test_util.hpp"

using namespace mpx;
using coll::Cart;

TEST(Topo, CoordsRankRoundTrip) {
  auto w = World::create(WorldConfig{.nranks = 6});
  Comm c = w->comm_world(0);
  const int dims[] = {2, 3};
  const int periodic[] = {0, 0};
  Cart cart = Cart::create(c, dims, periodic);
  for (int r = 0; r < 6; ++r) {
    const auto xy = cart.coords(r);
    EXPECT_EQ(cart.rank_of(xy), r);
  }
  // Row-major, last dimension fastest.
  EXPECT_EQ(cart.coords(0), (std::vector<int>{0, 0}));
  EXPECT_EQ(cart.coords(1), (std::vector<int>{0, 1}));
  EXPECT_EQ(cart.coords(3), (std::vector<int>{1, 0}));
  const int oob[] = {2, 0};
  EXPECT_EQ(cart.rank_of(oob), -1);  // non-periodic: off grid
}

TEST(Topo, PeriodicWrapAndShift) {
  auto w = World::create(WorldConfig{.nranks = 4});
  Comm c = w->comm_world(2);
  const int dims[] = {4};
  const int periodic[] = {1};
  Cart cart = Cart::create(c, dims, periodic);
  const int wrap[] = {-1};
  EXPECT_EQ(cart.rank_of(wrap), 3);

  const Cart::Shift s = cart.shift(0, 1);  // as seen by rank 2
  EXPECT_EQ(s.source, 1);
  EXPECT_EQ(s.dest, 3);
  const Cart::Shift s2 = cart.shift(0, 2);
  EXPECT_EQ(s2.source, 0);
  EXPECT_EQ(s2.dest, 0);  // wraps
}

TEST(Topo, NonPeriodicBoundaryIsProcNull) {
  auto w = World::create(WorldConfig{.nranks = 3});
  const int dims[] = {3};
  const int periodic[] = {0};
  Cart cart0 = Cart::create(w->comm_world(0), dims, periodic);
  const Cart::Shift s = cart0.shift(0, 1);
  EXPECT_EQ(s.source, -1);  // nothing to my left
  EXPECT_EQ(s.dest, 1);
  EXPECT_EQ(cart0.neighbors(), (std::vector<int>{-1, 1}));
}

TEST(Topo, DimsCreateBalanced) {
  EXPECT_EQ(coll::dims_create(12, 2), (std::vector<int>{4, 3}));
  EXPECT_EQ(coll::dims_create(8, 3), (std::vector<int>{2, 2, 2}));
  EXPECT_EQ(coll::dims_create(7, 2), (std::vector<int>{7, 1}));
  EXPECT_EQ(coll::dims_create(1, 3), (std::vector<int>{1, 1, 1}));
}

TEST(Topo, NeighborAllgather2D) {
  // 2x3 non-periodic grid: every rank publishes its rank id; each slot of
  // recvbuf holds the respective neighbor's id (or stays untouched at the
  // boundary).
  auto w = World::create(WorldConfig{.nranks = 6});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int dims[] = {2, 3};
    const int periodic[] = {0, 0};
    Cart cart = Cart::create(c, dims, periodic);
    std::int32_t mine = rank;
    std::vector<std::int32_t> nbr_vals(4, -99);
    coll::neighbor_allgather(&mine, 1, dtype::Datatype::int32(),
                             nbr_vals.data(), cart);
    const auto nbrs = cart.neighbors();
    for (int j = 0; j < 4; ++j) {
      if (nbrs[static_cast<std::size_t>(j)] < 0) {
        EXPECT_EQ(nbr_vals[static_cast<std::size_t>(j)], -99);  // untouched
      } else {
        EXPECT_EQ(nbr_vals[static_cast<std::size_t>(j)],
                  nbrs[static_cast<std::size_t>(j)]);
      }
    }
    w->finalize_rank(rank);
  });
}

TEST(Topo, NeighborAlltoallDirectional) {
  // 1-D periodic ring of 4: send distinct payloads left and right; verify
  // each arrives on the correct edge.
  auto w = World::create(WorldConfig{.nranks = 4});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int dims[] = {4};
    const int periodic[] = {1};
    Cart cart = Cart::create(c, dims, periodic);
    // Slot 0 = to my negative neighbor; slot 1 = to my positive neighbor.
    std::int32_t send[2] = {rank * 10 + 1, rank * 10 + 2};
    std::int32_t recv[2] = {-1, -1};
    coll::neighbor_alltoall(send, 1, dtype::Datatype::int32(), recv, cart);
    const int left = (rank + 3) % 4;
    const int right = (rank + 1) % 4;
    // From my left neighbor I get what it sent to ITS positive side.
    EXPECT_EQ(recv[0], left * 10 + 2);
    // From my right neighbor, what it sent to its negative side.
    EXPECT_EQ(recv[1], right * 10 + 1);
    w->finalize_rank(rank);
  });
}

TEST(Topo, DegenerateSizeTwoPeriodicRing) {
  // Size-2 periodic ring: each rank's left AND right neighbor is the same
  // peer. Directional payloads must still land on the right edges — the
  // per-edge tag test.
  auto w = World::create(WorldConfig{.nranks = 2});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int dims[] = {2};
    const int periodic[] = {1};
    Cart cart = Cart::create(c, dims, periodic);
    EXPECT_EQ(cart.neighbors(), (std::vector<int>{1 - rank, 1 - rank}));
    std::int32_t send[2] = {rank * 10 + 1, rank * 10 + 2};
    std::int32_t recv[2] = {-1, -1};
    coll::neighbor_alltoall(send, 1, dtype::Datatype::int32(), recv, cart);
    const int peer = 1 - rank;
    EXPECT_EQ(recv[0], peer * 10 + 2);  // peer's positive-direction payload
    EXPECT_EQ(recv[1], peer * 10 + 1);  // peer's negative-direction payload

    // A periodic dimension of size 1 makes each rank its own neighbor in
    // both directions: those edges are local copies.
    const int dims2[] = {2, 1};
    const int periodic2[] = {1, 1};
    Cart cart2 = Cart::create(c, dims2, periodic2);
    EXPECT_EQ(cart2.neighbors(),
              (std::vector<int>{peer, peer, rank, rank}));
    std::int32_t send2[4], recv2[4] = {-1, -1, -1, -1};
    for (int j = 0; j < 4; ++j) send2[j] = rank * 10 + j + 1;
    coll::neighbor_alltoall(send2, 1, dtype::Datatype::int32(), recv2, cart2);
    EXPECT_EQ(recv2[0], peer * 10 + 2);
    EXPECT_EQ(recv2[1], peer * 10 + 1);
    EXPECT_EQ(recv2[2], rank * 10 + 4);  // own positive-direction payload
    EXPECT_EQ(recv2[3], rank * 10 + 3);  // own negative-direction payload
    w->finalize_rank(rank);
  });
}

TEST(Topo, InvalidUsage) {
  auto w = World::create(WorldConfig{.nranks = 4});
  Comm c = w->comm_world(0);
  const int bad_dims[] = {3};  // 3 != 4
  const int periodic[] = {0};
  EXPECT_THROW(Cart::create(c, bad_dims, periodic), UsageError);
  const int dims[] = {4};
  Cart cart = Cart::create(c, dims, periodic);
  EXPECT_THROW(cart.shift(1, 1), UsageError);  // dim out of range
}
