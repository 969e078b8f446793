// Soak test: a time-bounded random mixed workload — p2p at every size,
// collectives, async hooks, pack requests, persistent ops — hammered
// concurrently from all ranks. The checks are (a) nothing deadlocks,
// (b) every payload arrives intact, (c) no request leaks afterwards.
#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <vector>

#include "mpx/coll/coll.hpp"
#include "mpx/task/deadline.hpp"
#include "test_util.hpp"

using namespace mpx;

TEST(Soak, RandomMixedWorkload) {
  const std::size_t base_live = core_detail::request_pool().stats().live;
  {
    WorldConfig cfg;
    cfg.nranks = 4;
    cfg.ranks_per_node = 2;       // both transports in play
    cfg.shm_eager_max = 2048;     // low thresholds: all protocols exercised
    cfg.net_lightweight_max = 128;
    cfg.net_eager_max = 4096;
    cfg.net_pipeline_min = 32 * 1024;
    cfg.net_pipeline_chunk = 8 * 1024;
    auto w = World::create(cfg);

    constexpr int kRounds = 60;
    mpx_test::run_ranks(*w, [&](int rank) {
      Comm c = w->comm_world(rank);
      const Stream s = c.stream();
      ASSERT_EQ(c.size(), 4);
      // Deterministic per-rank stream: reruns replay the exact workload.
      std::mt19937 rng = mpx_test::rank_rng(/*salt=*/0x50a1u, rank);

      // A background async hook alive for the whole run.
      std::atomic<bool> stop{false};
      std::atomic<int> hook_polls{0};
      async_start(
          [&]() -> AsyncResult {
            hook_polls.fetch_add(1);
            return stop.load() ? AsyncResult::done : AsyncResult::pending;
          },
          s);

      for (int round = 0; round < kRounds; ++round) {
        // The action must be identical on every rank (collectives and
        // pairwise exchanges need everyone on the same step); per-rank
        // randomness only shapes payload sizes.
        const int action =
            static_cast<int>((static_cast<unsigned>(round) * 2654435761u) >>
                             16) %
            4;
        switch (action) {
          case 0: {  // pairwise exchange with a random-sized payload
            const int peer = rank ^ 1;  // deterministic pairing (n = 4)
            const std::size_t sz = 1u << (rng() % 14);  // up to 8192 int32
            std::vector<std::int32_t> out(sz, rank * 1000 + round);
            std::vector<std::int32_t> in(16384, -1);
            Status st = c.sendrecv(out.data(), sz, dtype::Datatype::int32(),
                                   peer, 10000 + round, in.data(), in.size(),
                                   dtype::Datatype::int32(), peer,
                                   10000 + round);
            ASSERT_EQ(st.source, peer);
            const std::size_t got = st.count_bytes / 4;
            for (std::size_t i = 0; i < got; ++i) {
              ASSERT_EQ(in[i], peer * 1000 + round);
            }
            break;
          }
          case 1: {  // collective
            std::int64_t v = rank + round, sum = 0;
            coll::allreduce(&v, &sum, 1, dtype::Datatype::int64(),
                            dtype::ReduceOp::sum, c);
            ASSERT_EQ(sum, 0 + 1 + 2 + 3 + 4 * round);
            break;
          }
          case 2: {  // async pack
            std::vector<std::int32_t> src(512);
            std::iota(src.begin(), src.end(), round);
            auto strided =
                dtype::Datatype::vector(256, 1, 2, dtype::Datatype::int32());
            std::vector<std::byte> packed(1024);
            Request r = ipack(src.data(), 1, strided, packed, s, 128);
            wait_on_stream(r, s);
            break;
          }
          default: {  // dummy deadline task
            std::atomic<int> counter{1};
            task::add_dummy_task(s, 1e-5, &counter, nullptr);
            while (counter.load() > 0) stream_progress(s);
            break;
          }
        }
        // Keep the ranks loosely coupled: every few rounds, a barrier.
        if (round % 10 == 9) coll::barrier(c);
      }
      coll::barrier(c);
      stop.store(true);
      w->finalize_rank(rank);
      EXPECT_GT(hook_polls.load(), 0);
    });
  }
  EXPECT_EQ(core_detail::request_pool().stats().live, base_live);
}
