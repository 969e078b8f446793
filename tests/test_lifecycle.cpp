// Resource-lifecycle tests: every protocol path must release all of its
// request references — the request pool's summed `live` count is the
// tripwire. A leaked protocol reference (cookie taken but never adopted,
// posted-list entry never dropped, ...) shows up here as a nonzero delta.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpx/coll/coll.hpp"
#include "mpx/ext/continue.hpp"
#include "test_util.hpp"

using namespace mpx;

namespace {

long live() {
  return static_cast<long>(core_detail::request_pool().stats().live);
}

}  // namespace

TEST(Lifecycle, EagerPathReleasesEverything) {
  const long base = live();
  {
    auto w = World::create(WorldConfig{.nranks = 2});
    for (int i = 0; i < 50; ++i) {
      std::int32_t v = i, out = 0;
      Request s = w->comm_world(0).isend(&v, 1, dtype::Datatype::int32(), 1,
                                         0);
      w->comm_world(1).recv(&out, 1, dtype::Datatype::int32(), 0, 0);
      s.wait();
    }
  }
  EXPECT_EQ(live(), base);
}

TEST(Lifecycle, RendezvousPathsReleaseEverything) {
  const long base = live();
  {
    WorldConfig cfg{.nranks = 2};
    cfg.shm_eager_max = 64;
    auto w = World::create(cfg);
    std::vector<std::int64_t> big(4096, 1), out(4096, 0);
    for (int i = 0; i < 10; ++i) {
      Request s = w->comm_world(0).isend(big.data(), big.size(),
                                         dtype::Datatype::int64(), 1, 0);
      w->comm_world(1).recv(out.data(), out.size(),
                            dtype::Datatype::int64(), 0, 0);
      s.wait();
    }
  }
  EXPECT_EQ(live(), base);
}

TEST(Lifecycle, NetRendezvousAndPipelineRelease) {
  const long base = live();
  {
    WorldConfig cfg = mpx_test::virtual_net_config(2);
    cfg.net_pipeline_min = 64 * 1024;
    cfg.net_pipeline_chunk = 16 * 1024;
    auto w = World::create(cfg);
    std::vector<std::byte> big(512 * 1024), out(512 * 1024);
    Request s = w->comm_world(0).isend(big.data(), big.size(),
                                       dtype::Datatype::byte(), 1, 0);
    Request r = w->comm_world(1).irecv(out.data(), out.size(),
                                       dtype::Datatype::byte(), 0, 0);
    while (!s.is_complete() || !r.is_complete()) {
      w->virtual_clock()->advance(0.01);
      stream_progress(w->null_stream(0));
      stream_progress(w->null_stream(1));
    }
  }
  EXPECT_EQ(live(), base);
}

TEST(Lifecycle, CancelledReceiveReleases) {
  const long base = live();
  {
    auto w = World::create(WorldConfig{.nranks = 2});
    for (int i = 0; i < 20; ++i) {
      std::int32_t x = 0;
      Request r = w->comm_world(1).irecv(&x, 1, dtype::Datatype::int32(), 0,
                                         i);
      r.cancel();
    }
  }
  EXPECT_EQ(live(), base);
}

TEST(Lifecycle, AbandonedRequestsReleaseAtWorldTeardown) {
  // Posted receives and unexpected messages that never match are reclaimed
  // by VCI teardown, not leaked.
  const long base = live();
  {
    auto w = World::create(WorldConfig{.nranks = 2});
    std::int32_t x = 0;
    Request r1 = w->comm_world(1).irecv(&x, 1, dtype::Datatype::int32(), 0,
                                        1);
    std::int32_t v = 5;
    w->comm_world(0).isend(&v, 1, dtype::Datatype::int32(), 1, 99);
    stream_progress(w->null_stream(1));  // park it in the unexpected queue
    // Drop handles without completing anything.
  }
  EXPECT_EQ(live(), base);
}

TEST(Lifecycle, CollectivesRelease) {
  const long base = live();
  {
    auto w = World::create(WorldConfig{.nranks = 4});
    mpx_test::run_ranks(*w, [&](int rank) {
      Comm c = w->comm_world(rank);
      for (int i = 0; i < 5; ++i) {
        std::int64_t v = rank, sum = 0;
        coll::allreduce(&v, &sum, 1, dtype::Datatype::int64(),
                        dtype::ReduceOp::sum, c);
        coll::barrier(c);
        std::vector<std::int32_t> all(4 * 8);
        std::vector<std::int32_t> mine(8, rank);
        coll::allgather(mine.data(), 8, dtype::Datatype::int32(), all.data(),
                        c);
      }
      w->finalize_rank(rank);
    });
  }
  EXPECT_EQ(live(), base);
}

TEST(Lifecycle, PersistentAndContinuationsRelease) {
  const long base = live();
  {
    auto w = World::create(WorldConfig{.nranks = 2});
    Comm c0 = w->comm_world(0);
    Comm c1 = w->comm_world(1);
    std::int32_t v = 3, out = 0;
    Request ps = c0.send_init(&v, 1, dtype::Datatype::int32(), 1, 0);
    Request pr = c1.recv_init(&out, 1, dtype::Datatype::int32(), 0, 0);
    for (int i = 0; i < 5; ++i) {
      start(ps);
      start(pr);
      ps.wait();
      pr.wait();
    }
    // Continuations.
    Request cont = ext::continue_init(*w, w->null_stream(1));
    Request rr = c1.irecv(&out, 1, dtype::Datatype::int32(), 0, 1);
    std::vector<Request> reqs{rr};
    ext::continue_attach_all(reqs, [](const Status&, void*) {}, nullptr,
                             cont);
    c0.send(&v, 1, dtype::Datatype::int32(), 1, 1);
    while (!cont.is_complete()) stream_progress(w->null_stream(1));
  }
  EXPECT_EQ(live(), base);
}
