// Fair stage scheduling: each VCI's rotation cursor bounds how long an
// always-productive early stage can starve later ones.
//
// The hostile workload is a user async hook that reports progress on every
// poll (it completes and respawns itself, so the async stage's early-exit
// fires each call). A scan that always started from the top of the stage
// table would starve every stage behind it — shm delivery included —
// indefinitely. The cursor resumes the scan after the productive stage, so
// the transport stage is polled within one extra progress call and a
// pending receive completes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>

#include "test_util.hpp"

using namespace mpx;

namespace {

struct HostileState {
  std::atomic<int>* rounds;
  std::atomic<bool>* stop;
};

/// Always-productive hook: completes (progress!) and respawns itself until
/// told to stop. Every poll of the async stage reports made != 0.
AsyncResult hostile_poll(AsyncThing& t) {
  auto* st = static_cast<HostileState*>(t.state());
  st->rounds->fetch_add(1, std::memory_order_relaxed);
  if (!st->stop->load(std::memory_order_relaxed)) {
    t.spawn(&hostile_poll, new HostileState{*st}, t.stream(),
            [](void* p) { delete static_cast<HostileState*>(p); });
  }
  delete st;  // done contract: poll_fn releases its own state
  return AsyncResult::done;
}

struct Harness {
  std::shared_ptr<World> w;
  std::atomic<int> rounds{0};
  std::atomic<bool> stop{false};

  Harness() {
    w = World::create(WorldConfig{.nranks = 2});
    async_start(&hostile_poll, new HostileState{&rounds, &stop},
                w->null_stream(1),
                [](void* p) { delete static_cast<HostileState*>(p); });
    stream_progress(w->null_stream(1));  // register + first hostile round
  }

  void drain_and_finalize() {
    stop.store(true, std::memory_order_relaxed);
    stream_progress(w->null_stream(1));  // final round, no respawn
    w->finalize_rank(0);
    w->finalize_rank(1);
  }
};

}  // namespace

TEST(ProgressFairness, TransportPolledDespiteProductiveHook) {
  Harness h;
  std::int32_t val = 42, out = 0;
  Request r = h.w->comm_world(1).irecv(&out, 1, dtype::Datatype::int32(),
                                       /*src=*/0, /*tag=*/3);
  Request s = h.w->comm_world(0).isend(&val, 1, dtype::Datatype::int32(),
                                       /*dst=*/1, /*tag=*/3);
  EXPECT_TRUE(s.is_complete());  // shm eager: locally complete at initiation

  // Fairness bound: the hostile hook hits once, the cursor moves past the
  // async stage, and the shm stage delivers on the next scan. A handful of
  // calls is a generous ceiling; a scan from the top never completes this.
  int calls = 0;
  while (!r.is_complete()) {
    stream_progress(h.w->null_stream(1));
    ASSERT_LT(++calls, 16) << "fair rotation failed to reach the transport";
  }
  EXPECT_EQ(out, 42);
  EXPECT_GE(h.rounds.load(), 1);
  h.drain_and_finalize();
}

TEST(ProgressFairness, StageTableCountsHostileRounds) {
  // Observability satellite: the per-source counters must attribute the
  // hostile hits to the async stage and the delivery to the shm stage.
  Harness h;
  std::int32_t val = 1, out = 0;
  Request r = h.w->comm_world(1).irecv(&out, 1, dtype::Datatype::int32(),
                                       /*src=*/0, /*tag=*/5);
  (void)h.w->comm_world(0).isend(&val, 1, dtype::Datatype::int32(),
                                 /*dst=*/1, /*tag=*/5);
  while (!r.is_complete()) stream_progress(h.w->null_stream(1));

  std::uint64_t async_hits = 0, shm_hits = 0;
  for (const auto& st : h.w->vci_stage_table(1, 0)) {
    if (st.name == "async") async_hits = st.hits;
    if (st.name == "shm") shm_hits = st.hits;
  }
  EXPECT_GE(async_hits, 1u);
  EXPECT_GE(shm_hits, 1u);
  h.drain_and_finalize();
}
