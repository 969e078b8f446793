// Collective correctness across algorithms, communicator sizes, payload
// sizes, and both transports (parameterized sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "mpx/coll/coll.hpp"
#include "mpx/coll/ir.hpp"
#include "mpx/coll/user_allreduce.hpp"
#include "test_util.hpp"

using namespace mpx;

struct CollParam {
  int nranks;
  int ranks_per_node;  // 1 => NIC path, large => shm path
  std::size_t count;
};

class CollSweep : public ::testing::TestWithParam<CollParam> {
 protected:
  std::shared_ptr<World> make_world() const {
    const CollParam p = GetParam();
    WorldConfig cfg;
    cfg.nranks = p.nranks;
    cfg.ranks_per_node = p.ranks_per_node;
    return World::create(cfg);
  }
};

TEST_P(CollSweep, AllreduceSumMatchesSerial) {
  auto w = make_world();
  const auto p = GetParam();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::vector<std::int64_t> in(p.count), out(p.count, -1);
    for (std::size_t i = 0; i < p.count; ++i) {
      in[i] = static_cast<std::int64_t>(i) + rank;
    }
    coll::allreduce(in.data(), out.data(), p.count, dtype::Datatype::int64(),
                    dtype::ReduceOp::sum, c);
    const int n = c.size();
    for (std::size_t i = 0; i < p.count; ++i) {
      const auto expect = static_cast<std::int64_t>(i) * n +
                          static_cast<std::int64_t>(n) * (n - 1) / 2;
      ASSERT_EQ(out[i], expect) << "i=" << i;
    }
    w->finalize_rank(rank);
  });
}

TEST_P(CollSweep, BcastFromEveryRoot) {
  auto w = make_world();
  const auto p = GetParam();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    for (int root = 0; root < c.size(); ++root) {
      std::vector<std::int32_t> buf(p.count, rank == root ? root + 7 : -1);
      coll::bcast(buf.data(), p.count, dtype::Datatype::int32(), root, c);
      for (std::size_t i = 0; i < p.count; ++i) {
        ASSERT_EQ(buf[i], root + 7);
      }
    }
    w->finalize_rank(rank);
  });
}

TEST_P(CollSweep, ReduceToEveryRoot) {
  auto w = make_world();
  const auto p = GetParam();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int n = c.size();
    for (int root = 0; root < n; ++root) {
      std::vector<std::int32_t> in(p.count, rank + 1);
      std::vector<std::int32_t> out(p.count, 0);
      coll::reduce(in.data(), out.data(), p.count, dtype::Datatype::int32(),
                   dtype::ReduceOp::sum, root, c);
      if (rank == root) {
        for (std::size_t i = 0; i < p.count; ++i) {
          ASSERT_EQ(out[i], n * (n + 1) / 2);
        }
      }
    }
    w->finalize_rank(rank);
  });
}

TEST_P(CollSweep, AllgatherRing) {
  auto w = make_world();
  const auto p = GetParam();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int n = c.size();
    std::vector<std::int32_t> mine(p.count, rank * 100);
    std::vector<std::int32_t> all(p.count * static_cast<std::size_t>(n), -1);
    coll::allgather(mine.data(), p.count, dtype::Datatype::int32(),
                    all.data(), c);
    for (int r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < p.count; ++i) {
        ASSERT_EQ(all[static_cast<std::size_t>(r) * p.count + i], r * 100);
      }
    }
    w->finalize_rank(rank);
  });
}

TEST_P(CollSweep, Barrier) {
  auto w = make_world();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    for (int i = 0; i < 5; ++i) coll::barrier(c);
    w->finalize_rank(rank);
  });
}

TEST_P(CollSweep, AlltoallPairwise) {
  auto w = make_world();
  const auto p = GetParam();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int n = c.size();
    const std::size_t cnt = p.count;
    std::vector<std::int32_t> in(cnt * static_cast<std::size_t>(n));
    std::vector<std::int32_t> out(cnt * static_cast<std::size_t>(n), -1);
    for (int d = 0; d < n; ++d) {
      for (std::size_t i = 0; i < cnt; ++i) {
        in[static_cast<std::size_t>(d) * cnt + i] = rank * 1000 + d;
      }
    }
    coll::alltoall(in.data(), cnt, dtype::Datatype::int32(), out.data(), c);
    for (int s = 0; s < n; ++s) {
      for (std::size_t i = 0; i < cnt; ++i) {
        ASSERT_EQ(out[static_cast<std::size_t>(s) * cnt + i],
                  s * 1000 + rank);
      }
    }
    w->finalize_rank(rank);
  });
}

TEST_P(CollSweep, GatherScatterRoundTrip) {
  auto w = make_world();
  const auto p = GetParam();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int n = c.size();
    std::vector<std::int32_t> mine(p.count, rank + 1);
    std::vector<std::int32_t> gathered(p.count * static_cast<std::size_t>(n));
    coll::gather(mine.data(), p.count, dtype::Datatype::int32(),
                 gathered.data(), 0, c);
    std::vector<std::int32_t> back(p.count, -1);
    coll::scatter(gathered.data(), p.count, dtype::Datatype::int32(),
                  back.data(), 0, c);
    for (std::size_t i = 0; i < p.count; ++i) ASSERT_EQ(back[i], rank + 1);
    w->finalize_rank(rank);
  });
}

TEST_P(CollSweep, InPlaceVariants) {
  auto w = make_world();
  const auto p = GetParam();
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int n = c.size();
    const int root = n - 1;
    const std::size_t cnt = p.count;
    const std::size_t total = cnt * static_cast<std::size_t>(n);
    const auto me = static_cast<std::size_t>(rank);
    const auto dt = dtype::Datatype::int32();
    const auto sum = dtype::ReduceOp::sum;
    const auto val = [](std::size_t r, std::size_t i) {
      return static_cast<std::int32_t>(r * 100 + i);
    };

    // allgather: each rank's own block is already in place.
    std::vector<std::int32_t> all(total, -1);
    for (std::size_t i = 0; i < cnt; ++i) all[me * cnt + i] = val(me, i);
    coll::allgather(coll::in_place, cnt, dt, all.data(), c);
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_EQ(all[i], val(i / cnt, i % cnt)) << "allgather i=" << i;
    }

    // gather: in place at the root only (its block is already there);
    // non-roots pass no receive buffer.
    std::vector<std::int32_t> mine(cnt), g(total, -1);
    for (std::size_t i = 0; i < cnt; ++i) mine[i] = val(me, i);
    if (rank == root) {
      std::copy(mine.begin(), mine.end(), g.begin() + me * cnt);
      coll::gather(coll::in_place, cnt, dt, g.data(), root, c);
      EXPECT_EQ(g, all) << "gather";
    } else {
      coll::gather(mine.data(), cnt, dt, nullptr, root, c);
    }

    // scatter: in place at the root, whose own block stays in sendbuf.
    std::vector<std::int32_t> part(cnt, -1);
    if (rank == root) {
      coll::scatter(all.data(), cnt, dt, const_cast<void*>(coll::in_place),
                    root, c);
    } else {
      coll::scatter(nullptr, cnt, dt, part.data(), root, c);
      EXPECT_EQ(part, mine) << "scatter";
    }

    // reduce_scatter_block: input in recvbuf, result in its first block.
    std::vector<std::int32_t> rs(total);
    for (std::size_t j = 0; j < total; ++j) {
      rs[j] = static_cast<std::int32_t>(me + j);
    }
    coll::reduce_scatter_block(coll::in_place, rs.data(), cnt, dt, sum, c);
    for (std::size_t i = 0; i < cnt; ++i) {
      ASSERT_EQ(rs[i], n * static_cast<std::int32_t>(me * cnt + i) +
                           n * (n - 1) / 2)
          << "reduce_scatter_block i=" << i;
    }

    // scan / exscan: the contribution starts in recvbuf.
    std::vector<std::int32_t> sc(cnt), ex(cnt);
    for (std::size_t i = 0; i < cnt; ++i) {
      sc[i] = ex[i] = static_cast<std::int32_t>(me + 1 + i);
    }
    coll::scan(coll::in_place, sc.data(), cnt, dt, sum, c);
    coll::exscan(coll::in_place, ex.data(), cnt, dt, sum, c);
    const auto r32 = static_cast<std::int32_t>(rank);
    for (std::size_t i = 0; i < cnt; ++i) {
      const auto i32 = static_cast<std::int32_t>(i);
      ASSERT_EQ(sc[i], (r32 + 1) * (r32 + 2) / 2 + (r32 + 1) * i32);
      ASSERT_EQ(ex[i], rank == 0 ? 1 + i32 : r32 * (r32 + 1) / 2 + r32 * i32);
    }
    w->finalize_rank(rank);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CollSweep,
    ::testing::Values(CollParam{1, 0, 4}, CollParam{2, 0, 1},
                      CollParam{3, 0, 17}, CollParam{4, 0, 256},
                      CollParam{5, 0, 33}, CollParam{8, 0, 1024},
                      CollParam{2, 1, 64}, CollParam{4, 1, 512},
                      CollParam{6, 2, 100}),
    [](const ::testing::TestParamInfo<CollParam>& info) {
      const auto& p = info.param;
      return "n" + std::to_string(p.nranks) + "_rpn" +
             std::to_string(p.ranks_per_node) + "_c" +
             std::to_string(p.count);
    });

TEST(CollBarrier, NoRankLeavesBeforeTheLastArrives) {
  // One rank arrives ~20 ms late and raises a flag just before entering;
  // no rank may leave the barrier before that flag is visible.
  for (const int n : {2, 3, 5, 8}) {
    for (const int late : {0, n - 1}) {
      auto w = World::create(WorldConfig{.nranks = n});
      std::atomic<bool> arrived{false};
      mpx_test::run_ranks(*w, [&](int rank) {
        Comm c = w->comm_world(rank);
        if (rank == late) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          arrived.store(true);
        }
        coll::barrier(c);
        EXPECT_TRUE(arrived.load())
            << "n=" << n << " late=" << late << " rank=" << rank;
        w->finalize_rank(rank);
      });
    }
  }
}

TEST(CollRing, RingAllreduceMatchesRecursiveDoubling) {
  WorldConfig cfg;
  cfg.nranks = 4;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const std::size_t count = 1000;
    std::vector<double> in(count), rd(count), ring(count);
    for (std::size_t i = 0; i < count; ++i) {
      in[i] = static_cast<double>(i) * (rank + 1);
    }
    Request r = coll::ir::iallreduce(in.data(), rd.data(), count,
                                     dtype::Datatype::float64(),
                                     dtype::ReduceOp::sum, c,
                                     coll::ir::Opts{coll::ir::Algo::rd});
    wait_on_stream(r, c.stream());
    r = coll::ir::iallreduce(in.data(), ring.data(), count,
                             dtype::Datatype::float64(), dtype::ReduceOp::sum,
                             c, coll::ir::Opts{coll::ir::Algo::ring});
    wait_on_stream(r, c.stream());
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_DOUBLE_EQ(ring[i], rd[i]);
    }
    w->finalize_rank(rank);
  });
}

TEST(CollUser, UserAllreduceMatchesNative) {
  WorldConfig cfg;
  cfg.nranks = 4;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const std::size_t count = 64;
    std::vector<std::int32_t> user(count), native(count);
    for (std::size_t i = 0; i < count; ++i) {
      user[i] = static_cast<std::int32_t>(i) + rank;
      native[i] = user[i];
    }
    ASSERT_EQ(coll::user_allreduce_int_sum(user.data(), count, c),
              Err::success);
    coll::allreduce(coll::in_place, native.data(), count,
                    dtype::Datatype::int32(), dtype::ReduceOp::sum, c);
    for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(user[i], native[i]);
    w->finalize_rank(rank);
  });
}

TEST(CollUser, GeneralizedUserAllreduceMatchesNativeOnNonPow2) {
  WorldConfig cfg;
  cfg.nranks = 6;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const std::size_t count = 33;
    std::vector<std::int64_t> user(count), native(count);
    for (std::size_t i = 0; i < count; ++i) {
      user[i] = static_cast<std::int64_t>(i) * (rank + 1) - 7;
      native[i] = user[i];
    }
    ASSERT_EQ(coll::user_allreduce(user.data(), count,
                                   dtype::Datatype::int64(),
                                   dtype::ReduceOp::max, c),
              Err::success);
    coll::allreduce(coll::in_place, native.data(), count,
                    dtype::Datatype::int64(), dtype::ReduceOp::max, c);
    for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(user[i], native[i]);
    w->finalize_rank(rank);
  });
}

TEST(CollNonblocking, OverlappingCollectives) {
  // Two iallreduces in flight simultaneously on the same comm must not
  // interfere (distinct collective tags).
  WorldConfig cfg;
  cfg.nranks = 4;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::int64_t a_in = rank, a_out = 0;
    std::int64_t b_in = rank * 10, b_out = 0;
    Request ra = coll::iallreduce(&a_in, &a_out, 1, dtype::Datatype::int64(),
                                  dtype::ReduceOp::sum, c);
    Request rb = coll::iallreduce(&b_in, &b_out, 1, dtype::Datatype::int64(),
                                  dtype::ReduceOp::sum, c);
    Request reqs[2] = {ra, rb};
    wait_all(reqs);
    EXPECT_EQ(a_out, 0 + 1 + 2 + 3);
    EXPECT_EQ(b_out, 10 * (0 + 1 + 2 + 3));
    w->finalize_rank(rank);
  });
}

TEST(CollMinMax, MinMaxProdOps) {
  WorldConfig cfg;
  cfg.nranks = 3;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    double v = rank + 1.0;
    double mn = 0, mx = 0, pr = 0;
    coll::allreduce(&v, &mn, 1, dtype::Datatype::float64(),
                    dtype::ReduceOp::min, c);
    coll::allreduce(&v, &mx, 1, dtype::Datatype::float64(),
                    dtype::ReduceOp::max, c);
    coll::allreduce(&v, &pr, 1, dtype::Datatype::float64(),
                    dtype::ReduceOp::prod, c);
    EXPECT_EQ(mn, 1.0);
    EXPECT_EQ(mx, 3.0);
    EXPECT_EQ(pr, 6.0);
    w->finalize_rank(rank);
  });
}
