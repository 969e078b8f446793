// Adaptive progress engine tests.
//
// The EnginePolicy half is pure and deterministic: tests inject fabricated
// epoch samples and prove the mode transitions, the hysteresis damping at
// thresholds, deferred promotion under the worker ceiling, and the
// wait-ladder starvation signal. The runtime half is exercised end to end
// on a real World (promote while the application computes, drive a VCI
// whose only work is an async hook, serve many VCIs from the one shared
// poller, hold the worker ceiling across the shared poller and dedicated
// helpers, re-attach a recycled stream, free streams right after detach,
// demote and park on the sleep rung when the workload goes idle), with
// generous deadlines so scheduling noise cannot flake the assertions.
// ProgressThread rides along: it is the engine's only polling loop, shared
// and dedicated.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "mpx/task/progress_engine.hpp"
#include "mpx/task/progress_thread.hpp"
#include "test_util.hpp"

using namespace mpx;
using task::EngineMode;
using task::EnginePolicy;
using task::EngineSample;

namespace {

ProgressEngineConfig policy_cfg() {
  ProgressEngineConfig cfg;
  cfg.dedicate_hit_rate = 0.5;
  return cfg;
}

EngineSample starved_sample() {
  EngineSample s;
  s.pending = 1;
  s.app_polls = 0;
  return s;
}

EngineSample app_polling_sample() {
  EngineSample s;
  s.pending = 1;
  s.app_polls = 1000;
  return s;
}

EngineSample cold_sample() {
  EngineSample s;  // pending == 0, no polls anywhere
  return s;
}

EngineSample hot_shared_sample() {
  EngineSample s;
  s.pending = 1;
  s.engine_polls = 100;
  s.engine_hits = 60;  // 0.6 >= dedicate_hit_rate 0.5
  return s;
}

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// A hook that completes on every poll and respawns itself until told to
/// stop: every poll of its VCI makes progress (a hot VCI) and a hook is
/// always pending, so an application that never polls stays starved.
struct Relay {
  std::atomic<bool> stop{false};
  static AsyncResult poll(AsyncThing& t) {
    auto* r = static_cast<Relay*>(t.state());
    if (!r->stop.load(std::memory_order_acquire)) {
      t.spawn(&Relay::poll, r, t.stream());
    }
    return AsyncResult::done;
  }
};

/// Starts a hook on `s` that finishes on its `n`th poll, then waits — the
/// test thread never polls — until the engine has run it to completion.
bool engine_drives_hook(World& w, const Stream& s, int n) {
  auto polls = std::make_shared<std::atomic<int>>(0);
  async_start(
      [polls, n] {
        return polls->fetch_add(1, std::memory_order_relaxed) + 1 >= n
                   ? AsyncResult::done
                   : AsyncResult::pending;
      },
      s);
  return wait_until([&] { return polls->load() >= n; },
                    std::chrono::seconds(10)) &&
         wait_until([&] { return w.vci_pending(s.rank(), s.vci()) == 0; },
                    std::chrono::seconds(10));
}

}  // namespace

// ---------------------------------------------------------------- policy --

TEST(EnginePolicyTest, PromotesInlineToSharedAfterHysteresis) {
  EnginePolicy p(policy_cfg());
  // Epoch 1: signal present but streak not mature yet.
  EXPECT_EQ(p.decide(EngineMode::inline_poll, starved_sample(), true),
            EngineMode::inline_poll);
  // Epoch 2: second consecutive starved epoch takes the transition.
  EXPECT_EQ(p.decide(EngineMode::inline_poll, starved_sample(), true),
            EngineMode::shared);
}

TEST(EnginePolicyTest, StaysInlineWhileApplicationPolls) {
  EnginePolicy p(policy_cfg());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(p.decide(EngineMode::inline_poll, app_polling_sample(), true),
              EngineMode::inline_poll);
  }
}

TEST(EnginePolicyTest, WaitLadderBackoffCountsAsStarvation) {
  // The app IS polling (blocking waiters poll every round) but its waiters
  // fell off the spin rung: polls are empty, promote anyway.
  EnginePolicy p(policy_cfg());
  EngineSample s = app_polling_sample();
  s.wait_backoffs = 50;
  EXPECT_EQ(p.decide(EngineMode::inline_poll, s, true),
            EngineMode::inline_poll);
  EXPECT_EQ(p.decide(EngineMode::inline_poll, s, true), EngineMode::shared);
}

TEST(EnginePolicyTest, HysteresisDampsFlappingAtThreshold) {
  // Signal alternating on/off every epoch never accumulates a streak: the
  // mode must hold inline forever.
  EnginePolicy p(policy_cfg());
  for (int i = 0; i < 50; ++i) {
    const EngineSample s = (i % 2 == 0) ? starved_sample()
                                        : app_polling_sample();
    EXPECT_EQ(p.decide(EngineMode::inline_poll, s, true),
              EngineMode::inline_poll)
        << "flapped at epoch " << i;
  }
}

TEST(EnginePolicyTest, PromotesSharedToDedicatedOnHitRate) {
  EnginePolicy p(policy_cfg());
  EXPECT_EQ(p.decide(EngineMode::shared, hot_shared_sample(), true),
            EngineMode::shared);
  EXPECT_EQ(p.decide(EngineMode::shared, hot_shared_sample(), true),
            EngineMode::dedicated);
}

TEST(EnginePolicyTest, DemotesDownTheLadderWhenCold) {
  EnginePolicy p(policy_cfg());
  EXPECT_EQ(p.decide(EngineMode::dedicated, cold_sample(), true),
            EngineMode::dedicated);
  EXPECT_EQ(p.decide(EngineMode::dedicated, cold_sample(), true),
            EngineMode::shared);
  EXPECT_EQ(p.decide(EngineMode::shared, cold_sample(), true),
            EngineMode::shared);
  EXPECT_EQ(p.decide(EngineMode::shared, cold_sample(), true),
            EngineMode::inline_poll);
}

TEST(EnginePolicyTest, BusySharedVciIsNotDemoted) {
  EnginePolicy p(policy_cfg());
  EngineSample s;
  s.pending = 3;  // work in flight: hit rate alone must not demote
  s.engine_polls = 1000;
  s.engine_hits = 0;
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(p.decide(EngineMode::shared, s, true), EngineMode::shared);
  }
}

TEST(EnginePolicyTest, CeilingDefersPromotionWithoutDroppingIt) {
  EnginePolicy p(policy_cfg());
  // Streak matures but the worker budget says no: hold, don't reset.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(p.decide(EngineMode::inline_poll, starved_sample(), false),
              EngineMode::inline_poll);
  }
  // The moment budget frees up, the deferred promotion fires — no need to
  // rebuild the streak from scratch.
  EXPECT_EQ(p.decide(EngineMode::inline_poll, starved_sample(), true),
            EngineMode::shared);
}

// --------------------------------------------------------------- runtime --

TEST(ProgressEngineTest, PromotesWhileApplicationComputes) {
  WorldConfig cfg{.nranks = 2};
  cfg.progress_engine.epoch_us = 200;
  auto w = World::create(cfg);
  task::ProgressEngine eng(*w);
  eng.attach(w->null_stream(0));

  // Rank 0 posts a large (rendezvous) receive and then goes off to
  // "compute": it never calls progress again. Without the engine the LMT
  // copy would never run and the receive could not complete.
  const std::size_t n = 1 << 18;
  std::vector<std::int32_t> rbuf(n, -1), sbuf(n, 7);
  Comm c0 = w->comm_world(0);
  Request rreq =
      c0.irecv(rbuf.data(), n, dtype::Datatype::int32(), 1, 9);

  std::thread sender([&] {
    Comm c1 = w->comm_world(1);
    Request sreq = c1.isend(sbuf.data(), n, dtype::Datatype::int32(), 0, 9);
    sreq.wait();  // drives rank 1's own VCI only
  });

  EXPECT_TRUE(wait_until([&] { return rreq.is_complete(); },
                         std::chrono::seconds(20)))
      << "engine never completed the receive";
  sender.join();
  EXPECT_EQ(rbuf.front(), 7);
  EXPECT_EQ(rbuf.back(), 7);

  const auto st = eng.stats();
  EXPECT_GE(st.promotions, 1u) << "completion without a promotion?";
  EXPECT_GE(st.workers, 1);

  // Workload over: the engine must demote back to inline and park its
  // workers on the sleep rung instead of burning a core.
  EXPECT_TRUE(wait_until(
      [&] {
        return eng.mode_of(w->null_stream(0)) == EngineMode::inline_poll;
      },
      std::chrono::seconds(20)));
  EXPECT_GE(eng.stats().demotions, 1u);
  const std::uint64_t slept = eng.stats().worker_rungs.sleep;
  EXPECT_TRUE(wait_until(
      [&] { return eng.stats().worker_rungs.sleep > slept; },
      std::chrono::seconds(20)))
      << "idle engine workers never reached the sleep rung";

  eng.stop();
  w->finalize_rank(0);
  w->finalize_rank(1);
}

TEST(ProgressEngineTest, WorkerCeilingHolds) {
  WorldConfig cfg{.nranks = 1};
  cfg.progress_engine.epoch_us = 200;
  cfg.progress_engine.max_workers = 1;
  auto w = World::create(cfg);
  task::ProgressEngine eng(*w);

  // Two streams, both permanently starved (a receive that never matches
  // keeps active_ops pinned at 1 while the app never polls): both must end
  // up shared on the shared poller, the single allowed engine thread.
  Stream sa = w->stream_create(0);
  Stream sb = w->stream_create(0);
  eng.attach(sa);
  eng.attach(sb);

  Comm cw = w->comm_world(0);
  Comm ca = cw.with_stream(sa);
  Comm cb = cw.with_stream(sb);
  std::int32_t da = 0, db = 0;
  Request ra = ca.irecv(&da, 1, dtype::Datatype::int32(), 0, 1001);
  Request rb = cb.irecv(&db, 1, dtype::Datatype::int32(), 0, 1002);

  EXPECT_TRUE(wait_until(
      [&] {
        return eng.mode_of(sa) == EngineMode::shared &&
               eng.mode_of(sb) == EngineMode::shared;
      },
      std::chrono::seconds(20)));
  EXPECT_EQ(eng.stats().workers, 1);

  // The shared poller must be polling both VCIs.
  EXPECT_TRUE(wait_until(
      [&] {
        const auto st = eng.stats();
        std::uint64_t polled = 0;
        for (const auto& v : st.vcis) polled += v.engine_polls > 0 ? 1 : 0;
        return polled == 2;
      },
      std::chrono::seconds(20)));

  eng.stop();
  ra.cancel();
  rb.cancel();
  EXPECT_TRUE(ra.is_complete());
  EXPECT_TRUE(rb.is_complete());
  w->stream_free(sa);
  w->stream_free(sb);
  w->finalize_rank(0);
}

TEST(ProgressEngineTest, OneSharedPollerServesManyVcis) {
  // Shared mode is one thread however many VCIs ride it and however much
  // room the ceiling leaves: six starved VCIs all go shared on it.
  WorldConfig cfg{.nranks = 1};
  cfg.progress_engine.epoch_us = 200;
  cfg.progress_engine.max_workers = 4;
  auto w = World::create(cfg);
  task::ProgressEngine eng(*w);

  constexpr int kStreams = 6;
  Comm cw = w->comm_world(0);
  std::vector<Stream> streams;
  std::vector<Request> reqs;
  std::int32_t bufs[kStreams] = {};
  for (int i = 0; i < kStreams; ++i) {
    streams.push_back(w->stream_create(0));
    eng.attach(streams.back());
    // Never matched: keeps the VCI pending and its engine hit rate at 0.
    reqs.push_back(cw.with_stream(streams.back())
                       .irecv(&bufs[i], 1, dtype::Datatype::int32(), 0,
                              2000 + i));
  }

  EXPECT_TRUE(wait_until(
      [&] {
        return std::all_of(streams.begin(), streams.end(),
                           [&](const Stream& s) {
                             return eng.mode_of(s) == EngineMode::shared;
                           });
      },
      std::chrono::seconds(20)));
  EXPECT_TRUE(wait_until(
      [&] {
        const auto st = eng.stats();
        return st.vcis.size() == static_cast<std::size_t>(kStreams) &&
               std::all_of(st.vcis.begin(), st.vcis.end(),
                           [](const auto& v) { return v.engine_polls > 0; });
      },
      std::chrono::seconds(20)))
      << "the shared poller skipped a shared VCI";
  const auto st = eng.stats();
  EXPECT_EQ(st.workers, 1);
  EXPECT_EQ(st.steals, 0u);

  eng.stop();
  for (int i = 0; i < kStreams; ++i) {
    reqs[static_cast<std::size_t>(i)].cancel();
    EXPECT_TRUE(reqs[static_cast<std::size_t>(i)].is_complete());
    w->stream_free(streams[static_cast<std::size_t>(i)]);
  }
  w->finalize_rank(0);
}

TEST(ProgressEngineTest, DrivesHookOnlyWork) {
  // Regression: pending work used to count requests only, so a VCI whose
  // only work was an async hook looked idle and was never promoted; nobody
  // polled it again.
  WorldConfig cfg{.nranks = 1};
  cfg.progress_engine.epoch_us = 200;
  auto w = World::create(cfg);
  task::ProgressEngine eng(*w);
  Stream s = w->stream_create(0);
  eng.attach(s);

  // Finishes on its 100th poll. The test thread never polls.
  std::atomic<int> polls{0};
  async_start(
      [&polls] {
        return polls.fetch_add(1, std::memory_order_relaxed) + 1 >= 100
                   ? AsyncResult::done
                   : AsyncResult::pending;
      },
      s);
  EXPECT_TRUE(wait_until([&] { return polls.load() >= 100; },
                         std::chrono::seconds(5)))
      << "hook polled " << polls.load() << " times";
  EXPECT_TRUE(wait_until([&] { return w->vci_pending(0, s.vci()) == 0; },
                         std::chrono::seconds(5)));

  eng.stop();
  w->stream_free(s);
  w->finalize_rank(0);
}

TEST(ProgressEngineTest, WorkerBudgetCountsDedicatedHelpers) {
  // max_workers caps the shared poller plus dedicated helpers. Two
  // starved, hot VCIs: one earns a dedicated helper, the ceiling holds the
  // other in shared mode, and the shared poller keeps polling it.
  WorldConfig cfg{.nranks = 1};
  cfg.progress_engine.epoch_us = 200;
  cfg.progress_engine.max_workers = 2;
  auto w = World::create(cfg);
  task::ProgressEngine eng(*w);
  Stream streams[2] = {w->stream_create(0), w->stream_create(0)};
  Relay relays[2];
  for (int i = 0; i < 2; ++i) {
    async_start(&Relay::poll, &relays[i], streams[i]);
    eng.attach(streams[i]);
  }

  int max_workers_seen = 0;
  const auto sample = [&] {
    task::ProgressEngine::Stats st = eng.stats();
    max_workers_seen = std::max(max_workers_seen, st.workers);
    return st;
  };
  const auto polls_of = [&](const Stream& s) {
    for (const auto& v : sample().vcis) {
      if (v.vci == s.vci()) return v.engine_polls;
    }
    return std::uint64_t{0};
  };

  int ded = -1;
  ASSERT_TRUE(wait_until(
      [&] {
        sample();
        const EngineMode a = eng.mode_of(streams[0]);
        const EngineMode b = eng.mode_of(streams[1]);
        if (a == EngineMode::dedicated && b == EngineMode::shared) ded = 0;
        if (b == EngineMode::dedicated && a == EngineMode::shared) ded = 1;
        return ded >= 0;
      },
      std::chrono::seconds(20)))
      << "never reached one dedicated + one shared VCI";
  const Stream& shared = streams[1 - ded];
  const Stream& dedicated = streams[ded];

  const std::uint64_t before = polls_of(shared);
  EXPECT_TRUE(wait_until([&] { return polls_of(shared) > before + 100; },
                         std::chrono::seconds(20)))
      << "the shared VCI lost its poller";
  EXPECT_EQ(eng.mode_of(dedicated), EngineMode::dedicated);
  EXPECT_EQ(eng.mode_of(shared), EngineMode::shared);
  EXPECT_EQ(sample().workers, 2);
  EXPECT_LE(max_workers_seen, 2);

  eng.stop();
  for (int i = 0; i < 2; ++i) {
    relays[i].stop.store(true, std::memory_order_release);
    while (w->vci_pending(0, streams[i].vci()) > 0) {
      stream_progress(streams[i]);
    }
    w->stream_free(streams[i]);
  }
  w->finalize_rank(0);
}

TEST(ProgressEngineTest, DetachHandsProgressBack) {
  WorldConfig cfg{.nranks = 1};
  cfg.progress_engine.epoch_us = 200;
  auto w = World::create(cfg);
  task::ProgressEngine eng(*w);
  Stream s = w->null_stream(0);
  eng.attach(s);
  EXPECT_EQ(eng.mode_of(s), EngineMode::inline_poll);
  eng.detach(s);
  EXPECT_EQ(eng.mode_of(s), EngineMode::inline_poll);
  eng.stop();
  eng.stop();  // idempotent
  w->finalize_rank(0);
}

TEST(ProgressEngineTest, ReattachAfterStreamRecycleDrivesTheNewVci) {
  // Regression: a slot bound its VCI at the first attach and a re-attach
  // only cleared the detached flag. stream_free + stream_create recycles
  // the id and deletes the old Vci, so the shared poller polled freed
  // memory and never saw the new VCI's work.
  WorldConfig cfg{.nranks = 1};
  cfg.progress_engine.epoch_us = 200;
  cfg.progress_engine.dedicate_hit_rate = 2.0;  // stay on the shared poller
  auto w = World::create(cfg);
  task::ProgressEngine eng(*w);

  Stream s = w->stream_create(0);
  const int id = s.vci();
  eng.attach(s);
  ASSERT_TRUE(engine_drives_hook(*w, s, 50)) << "first VCI never driven";
  eng.detach(s);
  w->stream_free(s);

  s = w->stream_create(0);
  ASSERT_EQ(s.vci(), id) << "stream id was not recycled";
  eng.attach(s);
  ASSERT_TRUE(engine_drives_hook(*w, s, 50)) << "recycled VCI never driven";

  eng.detach(s);
  eng.stop();
  w->stream_free(s);
  w->finalize_rank(0);
}

TEST(ProgressEngineTest, DetachThenFreeChurnIsSafe) {
  // Once detach() returns no engine thread touches the VCI, so the stream
  // may be freed at once and its Vci deleted by a recycling stream_create,
  // while a Relay stream keeps the shared poller busy next to it.
  WorldConfig cfg{.nranks = 1};
  cfg.progress_engine.epoch_us = 200;
  cfg.progress_engine.dedicate_hit_rate = 2.0;  // stay on the shared poller
  auto w = World::create(cfg);
  task::ProgressEngine eng(*w);
  Stream busy = w->stream_create(0);
  Relay relay;
  async_start(&Relay::poll, &relay, busy);
  eng.attach(busy);

  for (int round = 0; round < 100; ++round) {
    Stream s = w->stream_create(0);
    eng.attach(s);
    ASSERT_TRUE(engine_drives_hook(*w, s, 3)) << "round " << round;
    eng.detach(s);
    w->stream_free(s);
  }
  EXPECT_EQ(eng.mode_of(busy), EngineMode::shared);

  eng.stop();
  relay.stop.store(true, std::memory_order_release);
  while (w->vci_pending(0, busy.vci()) > 0) stream_progress(busy);
  w->stream_free(busy);
  w->finalize_rank(0);
}

// ----------------------------------------------------------- ProgressThread --

TEST(ProgressThreadTest, ConcurrentStopAndDestroyIsSafe) {
  // Regression: stop() used to join unconditionally, so a destructor racing
  // an explicit stop() from another thread was a double-join (UB). Run the
  // race repeatedly with a live stream; TSan builds verify the handshake.
  for (int iter = 0; iter < 50; ++iter) {
    auto w = World::create(WorldConfig{.nranks = 1});
    auto* pt = new task::ProgressThread(w->null_stream(0));
    std::thread racer([&] { pt->stop(); });
    pt->stop();
    racer.join();
    // Counters published by the worker are visible after stop() returns.
    const std::uint64_t its = pt->iterations();
    EXPECT_GE(its, pt->productive());
    delete pt;  // third stop() via the destructor
  }
}

TEST(ProgressThreadTest, DrivesPollCallable) {
  // The engine's shared poller is a ProgressThread over a callable: every
  // call counts as an iteration, a nonzero return as productive, and each
  // empty call takes one step down the backoff ladder.
  auto w = World::create(WorldConfig{.nranks = 1});
  std::atomic<std::uint64_t> calls{0};
  task::ProgressThread pt(*w, [&calls] {
    return (calls.fetch_add(1, std::memory_order_relaxed) + 1) % 3 == 0 ? 1
                                                                        : 0;
  });
  ASSERT_TRUE(wait_until([&] { return calls.load() >= 300; },
                         std::chrono::seconds(10)));
  pt.stop();
  const std::uint64_t n = calls.load();
  EXPECT_EQ(pt.iterations(), n);
  EXPECT_EQ(pt.productive(), n / 3);
  const auto r = pt.rungs();
  EXPECT_EQ(r.spin + r.yield + r.sleep, n - n / 3);
  EXPECT_GT(r.spin, 0u);
}
