// The collective schedule compiler: every algorithm against a serial
// reference across rank counts (including non-pow2), dtypes, ops, counts,
// and placement; cache behavior (hit counters, distinct keys, capacity
// rejects); the zero-allocation steady state the per-comm cache promises;
// persistent handles; and the user-level Builder path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include "mpx/base/pool.hpp"
#include "mpx/coll/coll.hpp"
#include "mpx/coll/ir.hpp"
#include "test_util.hpp"

using namespace mpx;
namespace ir = mpx::coll::ir;

namespace {

/// Deterministic pseudo-random input: rank r's contribution at index i.
template <typename T>
T input_at(int rank, std::size_t i, std::uint64_t salt) {
  std::uint64_t x = (static_cast<std::uint64_t>(rank) + 1) * 0x9E3779B97F4A7C15u;
  x ^= (i + salt + 1) * 0xBF58476D1CE4E5B9u;
  x ^= x >> 29;
  return static_cast<T>(static_cast<std::int64_t>(x % 2001) - 1000);
}

template <typename T>
T apply_op(dtype::ReduceOp op, T a, T b) {
  switch (op) {
    case dtype::ReduceOp::sum:
      return static_cast<T>(a + b);
    case dtype::ReduceOp::max:
      return a > b ? a : b;
    case dtype::ReduceOp::min:
      return a < b ? a : b;
    default:
      return a;
  }
}

/// Serial reference: op over every rank's contribution at index i.
template <typename T>
T expected_at(int nranks, std::size_t i, dtype::ReduceOp op,
              std::uint64_t salt) {
  T acc = input_at<T>(0, i, salt);
  for (int r = 1; r < nranks; ++r) {
    acc = apply_op(op, acc, input_at<T>(r, i, salt));
  }
  return acc;
}

void drive(Request r, const Comm& c) { wait_on_stream(r, c.stream()); }

std::uint64_t total_pool_misses() {
  std::uint64_t n = 0;
  for (const base::NamedPoolStats& p : base::pool_registry_snapshot()) {
    n += p.stats.misses;
  }
  return n;
}

}  // namespace

// ---- property sweep: every algorithm vs the serial reference ---------------

// All 16 bytes are members, so gtest's byte dump of GetParam() (part of the
// ctest test name) never shows uninitialised padding.
struct IrParam {
  IrParam(int n, std::size_t c) : nranks(n), count(c) {}
  int nranks;
  std::int32_t pad = 0;
  std::size_t count;
};

class CollIrSweep : public ::testing::TestWithParam<IrParam> {};

TEST_P(CollIrSweep, AllreduceAllAlgosMatchSerial) {
  const IrParam p = GetParam();
  WorldConfig cfg;
  cfg.nranks = p.nranks;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const auto dt = dtype::Datatype::int64();
    for (const ir::Algo algo :
         {ir::Algo::rd, ir::Algo::ring, ir::Algo::rsag}) {
      for (const dtype::ReduceOp op :
           {dtype::ReduceOp::sum, dtype::ReduceOp::max}) {
        const auto salt = static_cast<std::uint64_t>(algo) * 131 +
                          static_cast<std::uint64_t>(op);
        // Out-of-place.
        std::vector<std::int64_t> in(p.count), out(p.count, -1);
        for (std::size_t i = 0; i < p.count; ++i) {
          in[i] = input_at<std::int64_t>(rank, i, salt);
        }
        drive(ir::iallreduce(in.data(), out.data(), p.count, dt, op, c,
                             ir::Opts{algo}),
              c);
        for (std::size_t i = 0; i < p.count; ++i) {
          ASSERT_EQ(out[i],
                    expected_at<std::int64_t>(p.nranks, i, op, salt))
              << "algo=" << ir::to_string(algo) << " i=" << i;
        }
        // In-place: the contribution starts in recvbuf.
        std::vector<std::int64_t> acc(p.count);
        for (std::size_t i = 0; i < p.count; ++i) {
          acc[i] = input_at<std::int64_t>(rank, i, salt);
        }
        drive(ir::iallreduce(coll::in_place, acc.data(), p.count, dt, op, c,
                             ir::Opts{algo}),
              c);
        for (std::size_t i = 0; i < p.count; ++i) {
          ASSERT_EQ(acc[i],
                    expected_at<std::int64_t>(p.nranks, i, op, salt))
              << "in-place algo=" << ir::to_string(algo) << " i=" << i;
        }
      }
    }
    w->finalize_rank(rank);
  });
}

TEST_P(CollIrSweep, AllreduceFloatMatchesSerialWithinTolerance) {
  const IrParam p = GetParam();
  WorldConfig cfg;
  cfg.nranks = p.nranks;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    for (const ir::Algo algo :
         {ir::Algo::rd, ir::Algo::ring, ir::Algo::rsag}) {
      std::vector<double> in(p.count), out(p.count);
      for (std::size_t i = 0; i < p.count; ++i) {
        in[i] = input_at<double>(rank, i, 7) / 16.0;
      }
      drive(ir::iallreduce(in.data(), out.data(), p.count,
                           dtype::Datatype::float64(), dtype::ReduceOp::sum,
                           c, ir::Opts{algo}),
            c);
      for (std::size_t i = 0; i < p.count; ++i) {
        const double want =
            expected_at<double>(p.nranks, i, dtype::ReduceOp::sum, 7) / 16.0;
        // Different algorithms associate the sum differently.
        ASSERT_NEAR(out[i], want, 1e-9 * (std::abs(want) + 1.0))
            << "algo=" << ir::to_string(algo) << " i=" << i;
      }
    }
    w->finalize_rank(rank);
  });
}

TEST_P(CollIrSweep, BcastAndReduceAllAlgosMatchSerial) {
  const IrParam p = GetParam();
  WorldConfig cfg;
  cfg.nranks = p.nranks;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const auto dt = dtype::Datatype::int32();
    for (const int root : {0, p.nranks / 2, p.nranks - 1}) {
      for (const ir::Algo algo : {ir::Algo::knomial, ir::Algo::scatter_ag}) {
        std::vector<std::int32_t> buf(p.count, -1);
        if (rank == root) {
          for (std::size_t i = 0; i < p.count; ++i) {
            buf[i] = input_at<std::int32_t>(root, i, 11);
          }
        }
        drive(ir::ibcast(buf.data(), p.count, dt, root, c, ir::Opts{algo}),
              c);
        for (std::size_t i = 0; i < p.count; ++i) {
          ASSERT_EQ(buf[i], input_at<std::int32_t>(root, i, 11))
              << "bcast algo=" << ir::to_string(algo) << " root=" << root;
        }
      }
      // Reduce (knomial), out-of-place everywhere + in-place at the root.
      std::vector<std::int32_t> in(p.count), out(p.count, 0);
      for (std::size_t i = 0; i < p.count; ++i) {
        in[i] = input_at<std::int32_t>(rank, i, 13);
      }
      drive(ir::ireduce(in.data(), rank == root ? out.data() : nullptr,
                        p.count, dt, dtype::ReduceOp::sum, root, c,
                        ir::Opts{ir::Algo::knomial}),
            c);
      if (rank == root) {
        for (std::size_t i = 0; i < p.count; ++i) {
          ASSERT_EQ(out[i], expected_at<std::int32_t>(
                                p.nranks, i, dtype::ReduceOp::sum, 13))
              << "reduce root=" << root << " i=" << i;
        }
        std::vector<std::int32_t> acc(p.count);
        for (std::size_t i = 0; i < p.count; ++i) {
          acc[i] = input_at<std::int32_t>(rank, i, 17);
        }
        drive(ir::ireduce(coll::in_place, acc.data(), p.count, dt,
                          dtype::ReduceOp::sum, root, c,
                          ir::Opts{ir::Algo::knomial}),
              c);
        for (std::size_t i = 0; i < p.count; ++i) {
          ASSERT_EQ(acc[i], expected_at<std::int32_t>(
                                p.nranks, i, dtype::ReduceOp::sum, 17));
        }
      } else {
        std::vector<std::int32_t> acc(p.count);
        for (std::size_t i = 0; i < p.count; ++i) {
          acc[i] = input_at<std::int32_t>(rank, i, 17);
        }
        drive(ir::ireduce(acc.data(), nullptr, p.count, dt,
                          dtype::ReduceOp::sum, root, c,
                          ir::Opts{ir::Algo::knomial}),
              c);
      }
    }
    w->finalize_rank(rank);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CollIrSweep,
    ::testing::Values(IrParam{2, 17}, IrParam{3, 1}, IrParam{3, 100},
                      IrParam{4, 64}, IrParam{5, 3}, IrParam{5, 1000},
                      IrParam{7, 129}, IrParam{8, 1024}),
    [](const ::testing::TestParamInfo<IrParam>& i) {
      return "p" + std::to_string(i.param.nranks) + "_n" +
             std::to_string(i.param.count);
    });

// Tag-offset reuse: a ring allreduce on a large comm issues more than 64
// messages per (peer, direction), forcing the compiler's tag-wrap
// serialization edges. 34 ranks -> 2*33 same-peer messages per side.
TEST(CollIrTagReuse, LargeRingAllreduce) {
  WorldConfig cfg;
  cfg.nranks = 34;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::vector<std::int32_t> in(40), out(40);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = input_at<std::int32_t>(rank, i, 23);
    }
    drive(ir::iallreduce(in.data(), out.data(), in.size(),
                         dtype::Datatype::int32(), dtype::ReduceOp::sum, c,
                         ir::Opts{ir::Algo::ring}),
          c);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i],
                expected_at<std::int32_t>(34, i, dtype::ReduceOp::sum, 23));
    }
    w->finalize_rank(rank);
  });
}

// ---- cache behavior --------------------------------------------------------

TEST(CollIrCache, HitCountersAndDistinctKeys) {
  WorldConfig cfg;
  cfg.nranks = 4;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const auto dt = dtype::Datatype::int32();
    std::vector<std::int32_t> in(16384, rank), out(16384);
    const auto ar = [&](std::size_t n, ir::Algo a) {
      drive(ir::iallreduce(in.data(), out.data(), n, dt,
                           dtype::ReduceOp::sum, c, ir::Opts{a}),
            c);
    };
    // Barriers are cached collectives too: synchronize on a duplicate
    // communicator so they stay out of `c`'s cache counters.
    const Comm sync = c.dup();
    ar(64, ir::Algo::rd);  // 4 compiles (one key per rank)
    coll::barrier(sync);
    if (rank == 0) {
      const ir::CacheStats s = ir::cache_stats(c);
      EXPECT_EQ(s.entries, 4u);
      EXPECT_EQ(s.misses, 4u);
      EXPECT_EQ(s.hits, 0u);
    }
    coll::barrier(sync);
    ar(64, ir::Algo::rd);   // same keys: pure hits
    ar(100, ir::Algo::rd);  // same count class (400 B vs 256 B): still hits
    coll::barrier(sync);
    if (rank == 0) {
      const ir::CacheStats s = ir::cache_stats(c);
      EXPECT_EQ(s.entries, 4u);
      EXPECT_EQ(s.misses, 4u);
      EXPECT_EQ(s.hits, 8u);
    }
    coll::barrier(sync);
    ar(64, ir::Algo::ring);    // forced algo: its own key
    ar(16384, ir::Algo::rd);   // different count class: its own key
    coll::barrier(sync);
    if (rank == 0) {
      const ir::CacheStats s = ir::cache_stats(c);
      EXPECT_EQ(s.entries, 12u);
      EXPECT_EQ(s.misses, 12u);
    }
    w->finalize_rank(rank);
  });
}

TEST(CollIrCache, CapacityRejectsStillCorrect) {
  ::setenv("MPX_COLL_CACHE_CAP", "2", 1);
  WorldConfig cfg;
  cfg.nranks = 4;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::vector<std::int64_t> in(32), out(32);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = input_at<std::int64_t>(rank, i, 29);
    }
    for (int iter = 0; iter < 3; ++iter) {
      drive(ir::iallreduce(in.data(), out.data(), in.size(),
                           dtype::Datatype::int64(), dtype::ReduceOp::sum, c),
            c);
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i],
                  expected_at<std::int64_t>(4, i, dtype::ReduceOp::sum, 29));
      }
    }
    coll::barrier(c);
    if (rank == 0) {
      const ir::CacheStats s = ir::cache_stats(c);
      EXPECT_EQ(s.entries, 2u);    // table capped
      EXPECT_GE(s.rejects, 2u);    // the other ranks' keys bounced
    }
    w->finalize_rank(rank);
  });
  ::unsetenv("MPX_COLL_CACHE_CAP");
}

// ---- steady-state allocation -----------------------------------------------

// The acceptance bar for the cache: after warmup, a repeated cached
// collective touches only pooled storage. Every pooled resource (request
// impls, payload buffers, executor cursors, cursor state blocks) reports
// misses to the pool registry, and the schedule's scratch recycler reports
// through cache_stats — all deltas must be zero in steady state. The pool
// high-water mark depends on thread interleaving, so a fixed warm-up count
// can undershoot it under machine load; miss growth is monotone and bounded
// by the working set, so a dirty measurement window is folded into warm-up
// and re-sampled. A real allocation-per-op dirties every window.
TEST(CollIrAlloc, SteadyStateTouchesNoAllocator) {
  if (base::pool_passthrough()) {
    GTEST_SKIP() << "pools disabled (asan or MPX_POOL_DISABLE)";
  }
  WorldConfig cfg;
  cfg.nranks = 4;
  auto w = World::create(cfg);
  bool steady = false;  // written by rank 0 between barriers, read by all
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::vector<std::int64_t> in(1024, rank), out(1024);
    const auto ar = [&] {
      drive(ir::iallreduce(in.data(), out.data(), in.size(),
                           dtype::Datatype::int64(), dtype::ReduceOp::sum, c),
            c);
    };
    std::uint64_t miss0 = 0, scratch_miss0 = 0;
    for (int i = 0; i < 8; ++i) ar();  // warm every pool
    for (int attempt = 0; attempt < 4 && !steady; ++attempt) {
      coll::barrier(c);
      coll::barrier(c);  // quiesce in-flight completions before sampling
      if (rank == 0) {
        miss0 = total_pool_misses();
        scratch_miss0 = ir::cache_stats(c).scratch_misses;
      }
      coll::barrier(c);
      for (int i = 0; i < 64; ++i) ar();
      coll::barrier(c);
      coll::barrier(c);
      if (rank == 0) {
        steady = total_pool_misses() == miss0 &&
                 ir::cache_stats(c).scratch_misses == scratch_miss0;
      }
      coll::barrier(c);
    }
    if (rank == 0) {
      EXPECT_TRUE(steady)
          << "steady-state cached allreduce hit the allocator in every "
             "measurement window";
      EXPECT_EQ(ir::cache_stats(c).rejects, 0u);
    }
    w->finalize_rank(rank);
  });
}

// ---- persistent handles ----------------------------------------------------

TEST(CollIrPersistent, CyclesRearmPinnedState) {
  WorldConfig cfg;
  cfg.nranks = 5;  // non-pow2: the persistent path folds too
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::vector<std::int64_t> in(256), out(256);
    Request req =
        coll::allreduce_init(in.data(), out.data(), in.size(),
                             dtype::Datatype::int64(), dtype::ReduceOp::sum, c);
    for (int cycle = 0; cycle < 12; ++cycle) {
      const auto salt = static_cast<std::uint64_t>(cycle) * 1000 + 37;
      for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = input_at<std::int64_t>(rank, i, salt);
      }
      mpx::start(req);
      req.wait();
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], expected_at<std::int64_t>(5, i,
                                                    dtype::ReduceOp::sum,
                                                    salt))
            << "cycle=" << cycle << " i=" << i;
      }
    }
    w->finalize_rank(rank);
  });
}

TEST(CollIrPersistent, SteadyCyclesTouchNoAllocator) {
  if (base::pool_passthrough()) {
    GTEST_SKIP() << "pools disabled (asan or MPX_POOL_DISABLE)";
  }
  WorldConfig cfg;
  cfg.nranks = 4;
  auto w = World::create(cfg);
  bool steady = false;  // written by rank 0 between barriers, read by all
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::vector<std::int64_t> in(2048, rank + 1), out(2048);
    Request req =
        coll::allreduce_init(in.data(), out.data(), in.size(),
                             dtype::Datatype::int64(), dtype::ReduceOp::sum, c);
    const auto cycle = [&] {
      mpx::start(req);
      req.wait();
    };
    std::uint64_t miss0 = 0;
    for (int i = 0; i < 8; ++i) cycle();
    // Same dirty-window retry as CollIrAlloc above: the pool high-water
    // mark is interleaving-dependent, the miss counter is monotone.
    for (int attempt = 0; attempt < 4 && !steady; ++attempt) {
      coll::barrier(c);
      coll::barrier(c);
      if (rank == 0) miss0 = total_pool_misses();
      coll::barrier(c);
      for (int i = 0; i < 64; ++i) cycle();
      coll::barrier(c);
      coll::barrier(c);
      if (rank == 0) steady = total_pool_misses() == miss0;
      coll::barrier(c);
    }
    if (rank == 0) {
      EXPECT_TRUE(steady)
          << "persistent cycle hit the allocator in every measurement window";
    }
    w->finalize_rank(rank);
  });
}

// ---- user-level schedules (Builder is public) -------------------------------

// A hand-built one-step neighbor rotation executes through the same cursor
// machinery as compiled schedules (the paper's §5.3 user-schedule shape).
TEST(CollIrBuilder, HandBuiltScheduleExecutes) {
  WorldConfig cfg;
  cfg.nranks = 4;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    ir::Builder b(ir::CollKind::bcast, dtype::Datatype::int32(),
                  dtype::ReduceOp::sum, /*in_place=*/false, rank, 4);
    b.send(ir::send_buf(ir::full()), (rank + 1) % 4);
    b.recv(ir::recv_buf(ir::full()), (rank + 3) % 4);
    ir::SchedPtr s = b.finish(ir::Algo::ring, 0, 64);
    std::vector<std::int32_t> in(64, rank * 100), out(64, -1);
    drive(ir::launch(s, in.data(), out.data(), in.size(), c), c);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], ((rank + 3) % 4) * 100);
    }
    w->finalize_rank(rank);
  });
}

// ---- selection and datatypes -----------------------------------------------

TEST(CollIrSelect, DeterministicAcrossRanksAndForcedAlgosStick) {
  const net::CostModel net{};
  for (const std::size_t count : {2ul, 1024ul, 262144ul}) {
    ir::SchedPtr first;
    for (int r = 0; r < 6; ++r) {
      ir::SchedPtr s =
          ir::compile(ir::CollKind::allreduce, count,
                      dtype::Datatype::int32(), dtype::ReduceOp::sum,
                      /*in_place=*/false, 0, r, 6, net);
      ASSERT_GE(s->max_count, count);
      if (first == nullptr) {
        first = s;
      } else {
        EXPECT_EQ(s->algo, first->algo)
            << "ranks disagree on algorithm for count=" << count;
      }
    }
  }
  ir::SchedPtr forced =
      ir::compile(ir::CollKind::allreduce, 4, dtype::Datatype::int32(),
                  dtype::ReduceOp::sum, false, 0, 0, 6, net, ir::Algo::ring);
  EXPECT_EQ(forced->algo, ir::Algo::ring);
}

namespace {

/// coll-exec stage hits of (rank, vci 0): how much progress the IR
/// executor made there.
std::uint64_t exec_hits(const World& w, int rank) {
  for (const World::StageCounter& sc : w.vci_stage_table(rank, 0)) {
    if (sc.name == "coll-exec") return sc.hits;
  }
  return 0;
}

}  // namespace

TEST(CollIrSelect, NonContiguousRunsOnExecutor) {
  // A non-contiguous bcast runs on the IR executor (uncached: the cache
  // key records the leaf type, not the layout) and leaves the gaps alone.
  WorldConfig cfg;
  cfg.nranks = 3;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const auto vec =
        dtype::Datatype::vector(4, 1, 2, dtype::Datatype::int32());
    std::vector<std::int32_t> buf(7, rank == 1 ? 5 : -1);
    if (rank != 1) {
      for (std::size_t i = 1; i < 7; i += 2) buf[i] = -2;
    }
    const std::uint64_t before = exec_hits(*w, rank);
    coll::bcast(buf.data(), 1, vec, 1, c);
    EXPECT_GT(exec_hits(*w, rank), before);
    for (std::size_t i = 0; i < 7; ++i) {
      ASSERT_EQ(buf[i], i % 2 == 0 || rank == 1 ? 5 : -2) << "i=" << i;
    }
    w->finalize_rank(rank);
  });
}
