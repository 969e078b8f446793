// Integration and stress tests: randomized message soup across every
// protocol threshold (property: all payloads delivered intact, in order per
// (src,dst,tag)), multi-world coexistence, mixed collectives + p2p + async
// hooks, and a full application pattern.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <vector>

#include "mpx/coll/coll.hpp"
#include "mpx/task/progress_thread.hpp"
#include "test_util.hpp"

using namespace mpx;

namespace {

/// Payload whose contents are a deterministic function of (seed, index).
std::vector<std::int32_t> pattern(std::uint32_t seed, std::size_t n) {
  std::vector<std::int32_t> v(n);
  std::uint32_t x = seed * 2654435761u + 1;
  for (auto& e : v) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    e = static_cast<std::int32_t>(x);
  }
  return v;
}

}  // namespace

struct SoupParam {
  int nranks;
  int ranks_per_node;
  int messages_per_pair;
};

class MessageSoup : public ::testing::TestWithParam<SoupParam> {};

TEST_P(MessageSoup, RandomizedSizesAllDeliveredInOrder) {
  const auto p = GetParam();
  WorldConfig cfg;
  cfg.nranks = p.nranks;
  cfg.ranks_per_node = p.ranks_per_node;
  cfg.shm_eager_max = 1024;       // low thresholds so the sweep crosses
  cfg.net_lightweight_max = 128;  // every protocol boundary
  cfg.net_eager_max = 2048;
  cfg.net_pipeline_min = 16 * 1024;
  cfg.net_pipeline_chunk = 4 * 1024;
  auto w = World::create(cfg);

  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const int n = c.size();
    // Deterministic per-rank size choices (payloads are pattern()-derived
    // from (src, dst, m), so only sizes come from the rng).
    std::mt19937 rng = mpx_test::rank_rng(/*salt=*/0x1096u, rank);
    // Sizes straddling every threshold (elements of int32).
    const std::size_t sizes[] = {0,  1,   17,  32,  257,  512,
                                 600, 1500, 4096, 8192, 20000};

    // Every rank sends `messages_per_pair` messages to every other rank;
    // message m to dst uses tag m and a seed-derived payload.
    std::vector<Request> sends;
    std::vector<std::vector<std::int32_t>> send_bufs;
    for (int dst = 0; dst < n; ++dst) {
      if (dst == rank) continue;
      for (int m = 0; m < p.messages_per_pair; ++m) {
        const std::size_t sz = sizes[rng() % std::size(sizes)];
        send_bufs.push_back(
            pattern(static_cast<std::uint32_t>(rank * 1000 + dst * 37 + m),
                    sz));
        sends.push_back(c.isend(send_bufs.back().data(), sz,
                                dtype::Datatype::int32(), dst, m));
      }
    }

    // Receive: sizes unknown, so probe-free approach — post with max size
    // and validate count from status.
    for (int src = 0; src < n; ++src) {
      if (src == rank) continue;
      for (int m = 0; m < p.messages_per_pair; ++m) {
        std::vector<std::int32_t> buf(20000, -1);
        Status st = c.recv(buf.data(), buf.size(), dtype::Datatype::int32(),
                           src, m);
        EXPECT_EQ(st.error, Err::success);
        EXPECT_EQ(st.source, src);
        const std::size_t got = st.count_bytes / 4;
        const auto expect = pattern(
            static_cast<std::uint32_t>(src * 1000 + rank * 37 + m), got);
        for (std::size_t i = 0; i < got; ++i) {
          ASSERT_EQ(buf[i], expect[i])
              << "src=" << src << " m=" << m << " i=" << i;
        }
      }
    }
    wait_all(sends);
    w->finalize_rank(rank);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MessageSoup,
    ::testing::Values(SoupParam{2, 0, 20}, SoupParam{4, 0, 8},
                      SoupParam{2, 1, 20}, SoupParam{4, 1, 6},
                      SoupParam{4, 2, 8}),
    [](const ::testing::TestParamInfo<SoupParam>& info) {
      return "n" + std::to_string(info.param.nranks) + "_rpn" +
             std::to_string(info.param.ranks_per_node) + "_m" +
             std::to_string(info.param.messages_per_pair);
    });

TEST(Integration, TwoWorldsCoexist) {
  // Two independent Worlds in one process: separate transports, clocks,
  // matching — nothing leaks across.
  auto wa = World::create(WorldConfig{.nranks = 2});
  auto wb = World::create(WorldConfig{.nranks = 2});
  std::int32_t va = 1, vb = 2, ra = 0, rb = 0;
  wa->comm_world(0).isend(&va, 1, dtype::Datatype::int32(), 1, 0);
  wb->comm_world(0).isend(&vb, 1, dtype::Datatype::int32(), 1, 0);
  wb->comm_world(1).recv(&rb, 1, dtype::Datatype::int32(), 0, 0);
  wa->comm_world(1).recv(&ra, 1, dtype::Datatype::int32(), 0, 0);
  EXPECT_EQ(ra, 1);
  EXPECT_EQ(rb, 2);
}

TEST(Integration, MixedCollectivesP2pAndAsyncHooks) {
  // Everything at once on each rank: an allreduce in flight, p2p ring
  // traffic, and a user async hook counting its own polls — all driven by
  // the same collated progress.
  WorldConfig cfg;
  cfg.nranks = 4;
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    const Stream s = c.stream();
    const int n = c.size();

    std::atomic<bool> hook_done{false};
    std::atomic<int> hook_polls{0};
    async_start(
        [&]() -> AsyncResult {
          hook_polls.fetch_add(1);
          return hook_done.load() ? AsyncResult::done : AsyncResult::pending;
        },
        s);

    std::int64_t sum_in = rank, sum_out = 0;
    Request ar = coll::iallreduce(&sum_in, &sum_out, 1,
                                  dtype::Datatype::int64(),
                                  dtype::ReduceOp::sum, c);

    std::int32_t token = rank;
    std::int32_t from_left = -1;
    Request sr = c.isend(&token, 1, dtype::Datatype::int32(), (rank + 1) % n,
                         99);
    Request rr = c.irecv(&from_left, 1, dtype::Datatype::int32(),
                         (rank + n - 1) % n, 99);

    Request reqs[] = {ar, sr, rr};
    wait_all(reqs);
    EXPECT_EQ(sum_out, 0 + 1 + 2 + 3);
    EXPECT_EQ(from_left, (rank + n - 1) % n);
    EXPECT_GT(hook_polls.load(), 0);
    hook_done.store(true);
    w->finalize_rank(rank);
  });
}

TEST(Integration, ProgressThreadDrivesEverythingUnattended) {
  // The Fig. 6 programming scheme: main threads only initiate and check
  // is_complete; ALL progress comes from per-rank helper threads.
  WorldConfig cfg;
  cfg.nranks = 2;
  cfg.shm_eager_max = 64;  // rendezvous => progress genuinely required
  auto w = World::create(cfg);
  mpx_test::run_ranks(*w, [&](int rank) {
    task::ProgressThread helper(w->null_stream(rank));
    Comm c = w->comm_world(rank);
    std::vector<double> data(2048, rank + 0.5);
    std::vector<double> in(2048, 0.0);
    const int peer = 1 - rank;
    Request sr = c.isend(data.data(), data.size(), dtype::Datatype::float64(),
                         peer, 0);
    Request rr = c.irecv(in.data(), in.size(), dtype::Datatype::float64(),
                         peer, 0);
    while (!sr.is_complete() || !rr.is_complete()) {
      std::this_thread::yield();  // no progress calls from this thread
    }
    for (double x : in) ASSERT_EQ(x, peer + 0.5);
    helper.stop();
    w->finalize_rank(rank);
  });
}

TEST(Integration, WaitTestFamilies) {
  auto w = World::create(WorldConfig{.nranks = 2});
  Comm c0 = w->comm_world(0);
  Comm c1 = w->comm_world(1);

  constexpr int kN = 6;
  std::int32_t out[kN];
  std::vector<Request> recvs;
  for (int i = 0; i < kN; ++i) {
    recvs.push_back(c1.irecv(&out[i], 1, dtype::Datatype::int32(), 0, i));
  }
  EXPECT_FALSE(test_all(recvs));
  EXPECT_FALSE(test_any(recvs).has_value());
  EXPECT_TRUE(test_some(recvs).empty());

  std::int32_t v = 3;
  c0.isend(&v, 1, dtype::Datatype::int32(), 1, 2);  // only tag 2
  const std::size_t idx = wait_any(recvs);
  EXPECT_EQ(idx, 2u);
  EXPECT_EQ(out[2], 3);

  for (std::int32_t i = 0; i < kN; ++i) {
    if (i != 2) c0.isend(&i, 1, dtype::Datatype::int32(), 1, i);
  }
  wait_all(recvs);
  EXPECT_TRUE(test_all(recvs));
  EXPECT_EQ(test_some(recvs).size(), static_cast<std::size_t>(kN));
  for (std::int32_t i = 0; i < kN; ++i) {
    if (i != 2) {
      EXPECT_EQ(out[i], i);
    }
  }
}

TEST(Integration, ThreadMultipleSharedCommStress) {
  // MPI_THREAD_MULTIPLE semantics: several threads per rank issue and
  // complete operations on the SAME communicator (VCI 0) concurrently. Tags
  // partition the traffic per thread; everything must match and no payload
  // may tear.
  auto w = World::create(WorldConfig{.nranks = 2});
  constexpr int kThreads = 4;
  constexpr int kMsgs = 50;

  auto rank_body = [&](int rank) {
    std::vector<base::ScopedThread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Comm c = w->comm_world(rank);
        const int peer = 1 - rank;
        for (int m = 0; m < kMsgs; ++m) {
          const int tag = t * 1000 + m;
          std::int64_t out = rank * 1'000'000 + tag;
          std::int64_t in = -1;
          Request s = c.isend(&out, 1, dtype::Datatype::int64(), peer, tag);
          Status st = c.recv(&in, 1, dtype::Datatype::int64(), peer, tag);
          ASSERT_EQ(st.error, Err::success);
          ASSERT_EQ(in, peer * 1'000'000 + tag);
          while (!s.is_complete()) stream_progress(w->null_stream(rank));
        }
      });
    }
  };
  {
    base::ScopedThread r0([&] { rank_body(0); });
    base::ScopedThread r1([&] { rank_body(1); });
  }
  w->finalize_rank(0);
  w->finalize_rank(1);
  // The shared VCI locks saw real concurrency without corruption.
  EXPECT_GE(w->vci_lock_stats(0, 0).acquires, 2u * kThreads * kMsgs);
}

TEST(Integration, ConcurrentWorldsOnThreads) {
  // Several Worlds progressing concurrently from different threads.
  std::vector<base::ScopedThread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      auto w = World::create(WorldConfig{.nranks = 2});
      std::int32_t v = i, out = -1;
      w->comm_world(0).isend(&v, 1, dtype::Datatype::int32(), 1, 0);
      w->comm_world(1).recv(&out, 1, dtype::Datatype::int32(), 0, 0);
      if (out == i) ok.fetch_add(1);
    });
  }
  threads.clear();  // join
  EXPECT_EQ(ok.load(), 3);
}

TEST(Integration, WaitAllStatusesAndGetStatus) {
  auto w = World::create(WorldConfig{.nranks = 2});
  Comm c0 = w->comm_world(0);
  Comm c1 = w->comm_world(1);

  std::int32_t bufs[3] = {-1, -1, -1};
  std::vector<Request> recvs;
  for (int i = 0; i < 3; ++i) {
    recvs.push_back(c1.irecv(&bufs[i], 1, dtype::Datatype::int32(), 0, i));
  }
  // get_status: repeatable, non-destructive.
  EXPECT_FALSE(get_status(recvs[0]).has_value());
  EXPECT_FALSE(get_status(recvs[0]).has_value());

  for (std::int32_t i = 0; i < 3; ++i) {
    c0.isend(&i, 1, dtype::Datatype::int32(), 1, i);
  }
  std::vector<Status> statuses(3);
  wait_all(recvs, statuses);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(statuses[static_cast<std::size_t>(i)].tag, i);
    EXPECT_EQ(statuses[static_cast<std::size_t>(i)].source, 0);
    EXPECT_EQ(bufs[i], i);
  }
  // Still queryable afterwards (unlike test(), nothing was consumed).
  auto st = get_status(recvs[2]);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->tag, 2);
}
