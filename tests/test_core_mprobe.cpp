// Matched probe (improbe/imrecv) tests: exact-message claiming, handle
// return-on-destruction ordering, rendezvous-claimed messages, and the
// multi-consumer use case that motivates the API.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpx/coll/coll.hpp"
#include "mpx/coll/ir.hpp"
#include "test_util.hpp"

using namespace mpx;

TEST(Mprobe, ClaimAndReceiveExactMessage) {
  auto w = World::create(WorldConfig{.nranks = 2});
  std::int32_t a = 10, b = 20;
  w->comm_world(0).isend(&a, 1, dtype::Datatype::int32(), 1, 1);
  w->comm_world(0).isend(&b, 1, dtype::Datatype::int32(), 1, 2);
  Comm c1 = w->comm_world(1);

  std::optional<MatchedMsg> m;
  for (int i = 0; i < 10 && !m; ++i) m = c1.improbe(0, 2);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->envelope().source, 0);
  EXPECT_EQ(m->envelope().tag, 2);
  EXPECT_EQ(m->envelope().count_bytes, 4u);

  // The claimed message (tag 2) is invisible to other receives.
  EXPECT_FALSE(c1.iprobe(0, 2).has_value());

  std::int32_t out = 0;
  Request r = c1.imrecv(&out, 1, dtype::Datatype::int32(), std::move(*m));
  ASSERT_TRUE(r.is_complete());  // payload had already arrived
  EXPECT_EQ(out, 20);

  // The unclaimed message still matches normally.
  c1.recv(&out, 1, dtype::Datatype::int32(), 0, 1);
  EXPECT_EQ(out, 10);
}

TEST(Mprobe, DroppedHandleRequeuesWithoutReordering) {
  auto w = World::create(WorldConfig{.nranks = 2});
  std::int32_t a = 1, b = 2;
  Comm c0 = w->comm_world(0);
  c0.isend(&a, 1, dtype::Datatype::int32(), 1, 5);
  c0.isend(&b, 1, dtype::Datatype::int32(), 1, 5);  // same tag: order matters
  Comm c1 = w->comm_world(1);

  {
    std::optional<MatchedMsg> m;
    for (int i = 0; i < 10 && !m; ++i) m = c1.improbe(0, 5);
    ASSERT_TRUE(m.has_value());
    // Handle dropped unconsumed: the FIRST message goes back to the front.
  }
  std::int32_t out = 0;
  c1.recv(&out, 1, dtype::Datatype::int32(), 0, 5);
  EXPECT_EQ(out, 1);  // non-overtaking preserved
  c1.recv(&out, 1, dtype::Datatype::int32(), 0, 5);
  EXPECT_EQ(out, 2);
}

TEST(Mprobe, RendezvousMessageClaimedBeforeData) {
  WorldConfig cfg{.nranks = 2};
  cfg.shm_eager_max = 64;  // force the RTS path
  auto w = World::create(cfg);
  std::vector<std::int64_t> big(5000);
  std::iota(big.begin(), big.end(), 0);
  Request s = w->comm_world(0).isend(big.data(), big.size(),
                                     dtype::Datatype::int64(), 1, 0);
  Comm c1 = w->comm_world(1);

  std::optional<MatchedMsg> m;
  for (int i = 0; i < 10 && !m; ++i) m = c1.improbe(0, 0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->envelope().count_bytes, 5000u * 8u);

  std::vector<std::int64_t> out(5000, -1);
  Request r = c1.imrecv(out.data(), out.size(), dtype::Datatype::int64(),
                        std::move(*m));
  while (!r.is_complete() || !s.is_complete()) {
    stream_progress(w->null_stream(1));
    stream_progress(w->null_stream(0));
  }
  EXPECT_EQ(out, big);
}

TEST(Mprobe, AnySourceClaim) {
  auto w = World::create(WorldConfig{.nranks = 3});
  std::int32_t v = 42;
  w->comm_world(2).isend(&v, 1, dtype::Datatype::int32(), 0, 9);
  Comm c0 = w->comm_world(0);
  std::optional<MatchedMsg> m;
  for (int i = 0; i < 10 && !m; ++i) m = c0.improbe(any_source, any_tag);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->envelope().source, 2);
  std::int32_t out = 0;
  c0.imrecv(&out, 1, dtype::Datatype::int32(), std::move(*m)).wait();
  EXPECT_EQ(out, 42);
}

TEST(CollChain, ChainBcastMatchesBinomial) {
  // The bandwidth-optimized bcast (knomial scatter + ring allgather) and
  // the tree bcast agree from every root on a large payload.
  auto w = World::create(WorldConfig{.nranks = 5});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    for (int root = 0; root < c.size(); ++root) {
      const std::size_t n = 40000;  // 160 KB
      std::vector<std::int32_t> sag_buf(n), tree_buf(n);
      if (rank == root) {
        std::iota(sag_buf.begin(), sag_buf.end(), root);
        tree_buf = sag_buf;
      }
      Request r = coll::ir::ibcast(sag_buf.data(), n,
                                   dtype::Datatype::int32(), root, c,
                                   coll::ir::Opts{coll::ir::Algo::scatter_ag});
      wait_on_stream(r, c.stream());
      r = coll::ir::ibcast(tree_buf.data(), n, dtype::Datatype::int32(), root,
                           c, coll::ir::Opts{coll::ir::Algo::knomial});
      wait_on_stream(r, c.stream());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(sag_buf[i], static_cast<std::int32_t>(i) + root);
        ASSERT_EQ(tree_buf[i], sag_buf[i]);
      }
    }
    w->finalize_rank(rank);
  });
}

TEST(CollChain, AutoSelectionHonorsThreshold) {
  // Small and large bcasts on 4 ranks select different algorithms from the
  // cost model; both produce the same result — this exercises selection.
  auto w = World::create(WorldConfig{.nranks = 4});
  mpx_test::run_ranks(*w, [&](int rank) {
    Comm c = w->comm_world(rank);
    std::int64_t v = rank == 1 ? 777 : 0;
    coll::bcast(&v, 1, dtype::Datatype::int64(), 1, c);
    EXPECT_EQ(v, 777);
    // Large message through the public entry (auto selection).
    std::vector<std::int64_t> big(64 * 1024, rank == 0 ? 3 : 0);
    coll::bcast(big.data(), big.size(), dtype::Datatype::int64(), 0, c);
    for (auto x : big) ASSERT_EQ(x, 3);
    w->finalize_rank(rank);
  });
}
