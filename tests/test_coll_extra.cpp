// Extended collective coverage: exscan, v-variants, stream-comm
// collectives, concurrent collectives across communicators, zero counts,
// and non-contiguous datatypes.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpx/coll/coll.hpp"
#include "mpx/coll/topo.hpp"
#include "test_util.hpp"

using namespace mpx;

TEST(CollVariable, Exscan) {
  auto w = World::create(WorldConfig{.nranks = 5});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::int32_t v = rank + 1;
    std::int32_t out = -999;
    coll::exscan(&v, &out, 1, dtype::Datatype::int32(), dtype::ReduceOp::sum,
                 c);
    if (rank == 0) {
      EXPECT_EQ(out, -999);  // rank 0's recvbuf untouched (MPI semantics)
    } else {
      EXPECT_EQ(out, rank * (rank + 1) / 2);  // sum of 1..rank
    }
    w->finalize_rank(rank);
  });
}

TEST(CollVariable, GathervScattervRoundTrip) {
  auto w = World::create(WorldConfig{.nranks = 4});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int n = c.size();
    // Rank r contributes r+1 elements.
    std::vector<std::size_t> counts, displs;
    std::size_t total = 0;
    for (int r = 0; r < n; ++r) {
      counts.push_back(static_cast<std::size_t>(r) + 1);
      displs.push_back(total);
      total += counts.back();
    }
    std::vector<std::int32_t> mine(counts[static_cast<std::size_t>(rank)],
                                   rank * 10);
    std::vector<std::int32_t> gathered(total, -1);
    coll::gatherv(mine.data(), mine.size(), dtype::Datatype::int32(),
                  gathered.data(), counts, displs, 2, c);
    if (rank == 2) {
      for (int r = 0; r < n; ++r) {
        for (std::size_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i) {
          ASSERT_EQ(gathered[displs[static_cast<std::size_t>(r)] + i], r * 10);
        }
      }
    }
    // Scatter it back out; every rank must recover its own block.
    std::vector<std::int32_t> back(counts[static_cast<std::size_t>(rank)], -1);
    coll::scatterv(gathered.data(), counts, displs, dtype::Datatype::int32(),
                   back.data(), back.size(), 2, c);
    for (auto x : back) ASSERT_EQ(x, rank * 10);
    w->finalize_rank(rank);
  });
}

TEST(CollVariable, Allgatherv) {
  auto w = World::create(WorldConfig{.nranks = 5});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int n = c.size();
    std::vector<std::size_t> counts, displs;
    std::size_t total = 0;
    for (int r = 0; r < n; ++r) {
      counts.push_back(static_cast<std::size_t>(2 * r + 1));
      displs.push_back(total);
      total += counts.back();
    }
    std::vector<std::int64_t> mine(counts[static_cast<std::size_t>(rank)],
                                   100 + rank);
    std::vector<std::int64_t> all(total, -1);
    coll::allgatherv(mine.data(), mine.size(), dtype::Datatype::int64(),
                     all.data(), counts, displs, c);
    for (int r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i) {
        ASSERT_EQ(all[displs[static_cast<std::size_t>(r)] + i], 100 + r);
      }
    }
    w->finalize_rank(rank);
  });
}

TEST(CollStream, CollectivesOnStreamCommunicator) {
  // Collectives on a stream communicator run entirely on the streams' VCIs;
  // the default stream stays quiet.
  auto w = World::create(WorldConfig{.nranks = 3});
  mpx_test::run_ranks(*w, [&](int rank) {
    Stream s = w->stream_create(rank);
    Comm sc = w->comm_world(rank).with_stream(s);
    const auto vci0_calls_before = w->vci_progress_calls(rank, 0);

    std::int64_t v = rank + 1, sum = 0;
    coll::allreduce(&v, &sum, 1, dtype::Datatype::int64(),
                    dtype::ReduceOp::sum, sc);
    EXPECT_EQ(sum, 6);
    std::int32_t b = rank == 0 ? 55 : 0;
    coll::bcast(&b, 1, dtype::Datatype::int32(), 0, sc);
    EXPECT_EQ(b, 55);

    EXPECT_EQ(w->vci_progress_calls(rank, 0), vci0_calls_before);
    w->finalize_rank(rank);
  });
}

TEST(CollStream, ConcurrentCollectivesOnSplitComms) {
  // Disjoint split communicators run collectives concurrently without
  // interference (distinct collective contexts).
  auto w = World::create(WorldConfig{.nranks = 6});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    Comm sub = c.split(rank % 2, rank);
    std::int64_t v = rank, sum = -1;
    coll::allreduce(&v, &sum, 1, dtype::Datatype::int64(),
                    dtype::ReduceOp::sum, sub);
    const std::int64_t expect = rank % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5;
    EXPECT_EQ(sum, expect);
    // A world-comm barrier still works across the split.
    coll::barrier(c);
    w->finalize_rank(rank);
  });
}

TEST(CollEdge, SingleRankCollectivesAreLocal) {
  auto w = World::create(WorldConfig{.nranks = 1});
  Comm c = w->comm_world(0);
  std::int32_t v = 7, out = 0;
  coll::allreduce(&v, &out, 1, dtype::Datatype::int32(),
                  dtype::ReduceOp::sum, c);
  EXPECT_EQ(out, 7);
  coll::bcast(&v, 1, dtype::Datatype::int32(), 0, c);
  coll::barrier(c);
  std::int32_t scanout = 0;
  coll::scan(&v, &scanout, 1, dtype::Datatype::int32(),
             dtype::ReduceOp::sum, c);
  EXPECT_EQ(scanout, 7);
  w->finalize_rank(0);
}

TEST(CollEdge, ZeroCountCollectives) {
  // Every kind accepts a zero count with null buffers and still
  // synchronizes like a collective call.
  auto w = World::create(WorldConfig{.nranks = 3});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const auto dt = dtype::Datatype::int32();
    const auto sum = dtype::ReduceOp::sum;
    coll::allreduce(nullptr, nullptr, 0, dt, sum, c);
    coll::bcast(nullptr, 0, dt, 1, c);
    coll::reduce(nullptr, nullptr, 0, dt, sum, 2, c);
    coll::allgather(nullptr, 0, dt, nullptr, c);
    coll::gather(nullptr, 0, dt, nullptr, 1, c);
    coll::scatter(nullptr, 0, dt, nullptr, 1, c);
    coll::alltoall(nullptr, 0, dt, nullptr, c);
    coll::reduce_scatter_block(nullptr, nullptr, 0, dt, sum, c);
    coll::scan(nullptr, nullptr, 0, dt, sum, c);
    coll::exscan(nullptr, nullptr, 0, dt, sum, c);
    const std::vector<std::size_t> zeros(3, 0);
    coll::gatherv(nullptr, 0, dt, nullptr, zeros, zeros, 0, c);
    coll::scatterv(nullptr, zeros, zeros, dt, nullptr, 0, 0, c);
    coll::allgatherv(nullptr, 0, dt, nullptr, zeros, zeros, c);
    const int dims[] = {3};
    const int periodic[] = {1};
    const coll::Cart cart = coll::Cart::create(c, dims, periodic);
    coll::neighbor_allgather(nullptr, 0, dt, nullptr, cart);
    coll::neighbor_alltoall(nullptr, 0, dt, nullptr, cart);
    Request pb = coll::bcast_init(nullptr, 0, dt, 0, c);
    Request pa = coll::allreduce_init(nullptr, nullptr, 0, dt, sum, c);
    start(pb);
    pb.wait();
    start(pa);
    pa.wait();
    w->finalize_rank(rank);
  });
}

TEST(CollPersistent, BarrierAndAllreduceCycles) {
  auto w = World::create(WorldConfig{.nranks = 4});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::int64_t in = 0, out = 0;
    Request pbar = coll::barrier_init(c);
    Request pall = coll::allreduce_init(&in, &out, 1,
                                        dtype::Datatype::int64(),
                                        dtype::ReduceOp::sum, c);
    EXPECT_TRUE(pbar.is_complete());  // born inactive
    for (int cycle = 0; cycle < 5; ++cycle) {
      in = rank * 10 + cycle;
      start(pall);
      pall.wait();
      EXPECT_EQ(out, (0 + 10 + 20 + 30) + 4 * cycle);
      start(pbar);
      pbar.wait();
    }
    w->finalize_rank(rank);
  });
}

TEST(CollPersistent, BcastCycles) {
  auto w = World::create(WorldConfig{.nranks = 3});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::int32_t buf = -1;
    Request pb = coll::bcast_init(&buf, 1, dtype::Datatype::int32(), 1, c);
    for (int cycle = 0; cycle < 4; ++cycle) {
      if (rank == 1) buf = cycle * 7;
      start(pb);
      pb.wait();
      EXPECT_EQ(buf, cycle * 7);
      coll::barrier(c);  // keep cycles in lock-step across members
    }
    w->finalize_rank(rank);
  });
}

// ---- non-contiguous datatypes ----------------------------------------------
//
// vector(4, 1, 2, int32): four ints at stride two, so one element spans
// seven ints (extent 28 B, size 16 B) and leaves three gap ints. Elements of
// a buffer sit one extent apart; every data int must arrive at its
// extent-based offset and every gap int must stay untouched.

namespace {

constexpr std::size_t kExt = 7;  // ints per element (the extent)
constexpr std::int32_t kGap = -7777;

dtype::Datatype vec_t() {
  return dtype::Datatype::vector(4, 1, 2, dtype::Datatype::int32());
}

/// Buffer of `n` elements whose k-th data int of element e is f(e, k).
template <typename F>
std::vector<std::int32_t> vec_buf(std::size_t n, F f) {
  std::vector<std::int32_t> b(n * kExt, kGap);
  for (std::size_t e = 0; e < n; ++e) {
    for (std::size_t k = 0; k < 4; ++k) {
      b[e * kExt + 2 * k] = f(e, k);
    }
  }
  return b;
}

std::vector<std::int32_t> vec_empty(std::size_t n) {
  return vec_buf(n, [](std::size_t, std::size_t) { return -1; });
}

/// Element e of `b` holds f(e, k) in its data ints and kGap in its gaps.
template <typename F>
void expect_vec(const std::vector<std::int32_t>& b, F f, const char* what) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    const std::size_t e = i / kExt, off = i % kExt;
    const std::int32_t want = off % 2 == 0 ? f(e, off / 2) : kGap;
    ASSERT_EQ(b[i], want) << what << ": element " << e << " int " << off;
  }
}

std::int32_t tagged(std::size_t a, std::size_t b, std::size_t k) {
  return static_cast<std::int32_t>(a * 100 + b * 10 + k);
}

}  // namespace

TEST(CollNonContig, AllgatherAlltoall) {
  auto w = World::create(WorldConfig{.nranks = 3});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const auto me = static_cast<std::size_t>(rank);
    const auto mine = vec_buf(1, [&](std::size_t, std::size_t k) {
      return tagged(me, 0, k);
    });
    auto all = vec_empty(3);
    coll::allgather(mine.data(), 1, vec_t(), all.data(), c);
    expect_vec(all, [](std::size_t e, std::size_t k) {
      return tagged(e, 0, k);
    }, "allgather");

    // Block d of the send buffer goes to rank d.
    const auto out = vec_buf(3, [&](std::size_t d, std::size_t k) {
      return tagged(me, d, k);
    });
    auto in = vec_empty(3);
    coll::alltoall(out.data(), 1, vec_t(), in.data(), c);
    expect_vec(in, [&](std::size_t s, std::size_t k) {
      return tagged(s, me, k);
    }, "alltoall");
    w->finalize_rank(rank);
  });
}

TEST(CollNonContig, GatherScatter) {
  auto w = World::create(WorldConfig{.nranks = 3});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const auto me = static_cast<std::size_t>(rank);
    const auto f = [](std::size_t e, std::size_t k) {
      return tagged(e, 5, k);
    };
    const auto mine = vec_buf(1, [&](std::size_t, std::size_t k) {
      return f(me, k);
    });
    auto gathered = vec_empty(3);
    coll::gather(mine.data(), 1, vec_t(), gathered.data(), 1, c);
    if (rank == 1) expect_vec(gathered, f, "gather");
    // Scatter the root's gathered blocks back out.
    auto back = vec_empty(1);
    coll::scatter(gathered.data(), 1, vec_t(), back.data(), 1, c);
    expect_vec(back, [&](std::size_t, std::size_t k) { return f(me, k); },
               "scatter");
    w->finalize_rank(rank);
  });
}

TEST(CollNonContig, VariableCountVariants) {
  // Rank r contributes r+1 elements; blocks are packed back to back.
  auto w = World::create(WorldConfig{.nranks = 3});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const auto me = static_cast<std::size_t>(rank);
    const std::vector<std::size_t> counts{1, 2, 3}, displs{0, 1, 3};
    const auto owner = [](std::size_t e) -> std::size_t {
      return e == 0 ? 0 : e < 3 ? 1 : 2;
    };
    const auto f = [&](std::size_t e, std::size_t k) {
      return tagged(owner(e), e, k);
    };
    const auto mine = vec_buf(counts[me], [&](std::size_t e, std::size_t k) {
      return f(displs[me] + e, k);
    });
    auto gathered = vec_empty(6);
    coll::gatherv(mine.data(), counts[me], vec_t(), gathered.data(), counts,
                  displs, 2, c);
    if (rank == 2) expect_vec(gathered, f, "gatherv");

    auto back = vec_empty(counts[me]);
    coll::scatterv(gathered.data(), counts, displs, vec_t(), back.data(),
                   counts[me], 2, c);
    expect_vec(back, [&](std::size_t e, std::size_t k) {
      return f(displs[me] + e, k);
    }, "scatterv");

    auto all = vec_empty(6);
    coll::allgatherv(mine.data(), counts[me], vec_t(), all.data(), counts,
                     displs, c);
    expect_vec(all, f, "allgatherv");
    w->finalize_rank(rank);
  });
}

TEST(CollNonContig, NeighborAllgather) {
  auto w = World::create(WorldConfig{.nranks = 3});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int dims[] = {3};
    const int periodic[] = {1};
    const coll::Cart cart = coll::Cart::create(c, dims, periodic);
    const auto mine = vec_buf(1, [&](std::size_t, std::size_t k) {
      return tagged(static_cast<std::size_t>(rank), 0, k);
    });
    auto nbr = vec_empty(2);
    coll::neighbor_allgather(mine.data(), 1, vec_t(), nbr.data(), cart);
    const std::vector<int> nbrs = cart.neighbors();
    expect_vec(nbr, [&](std::size_t j, std::size_t k) {
      return tagged(static_cast<std::size_t>(nbrs[j]), 0, k);
    }, "neighbor_allgather");
    w->finalize_rank(rank);
  });
}

TEST(CollNonContig, LargeBcast) {
  // 256 KiB of packed payload on 3 ranks: the bandwidth-bound bcast shape.
  constexpr std::size_t kElems = 256 * 1024 / 16;
  auto w = World::create(WorldConfig{.nranks = 3});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const auto f = [](std::size_t e, std::size_t k) {
      return static_cast<std::int32_t>(e * 4 + k);
    };
    auto buf = rank == 0 ? vec_buf(kElems, f) : vec_empty(kElems);
    coll::bcast(buf.data(), kElems, vec_t(), 0, c);
    expect_vec(buf, f, "bcast");
    w->finalize_rank(rank);
  });
}
