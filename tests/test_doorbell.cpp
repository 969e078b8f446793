// The doorbell an idle poller sleeps on (base::Doorbell) and the runtime's
// ring points (wait_policy.hpp, "doorbell").
//
//   * Doorbell unit behavior: a ring before the wait, the last look, the
//     timeout, the relay.
//   * A ProgressThread on a quiet VCI reaches its bell, and each ring
//     source then wakes it well inside the kQuietNap safety timeout: a
//     message sent to the VCI, an LMT receive filed on it, the receiver
//     publishing its buffer to the sender's VCI, an async_start hook, an
//     engine attach, and the thread's own stop(). (The parked-send flush
//     and synthesized completions ring through the same inject() as a
//     send.)
//   * A 4-thread ring/sleep stress: no wait ends on its timeout after the
//     work it waited for was published (tsan runs this too).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "mpx/base/doorbell.hpp"
#include "mpx/core/progress_source.hpp"
#include "mpx/task/progress_engine.hpp"
#include "mpx/task/progress_thread.hpp"
#include "test_util.hpp"

using namespace mpx;
using base::Doorbell;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::chrono::microseconds kLong{5 * 1000 * 1000};

TEST(Doorbell, LastLookSkipsTheSleep) {
  Doorbell b;
  EXPECT_EQ(b.wait([] { return true; }, kLong), Doorbell::Wake::ready);
  EXPECT_EQ(b.sleepers(), 0u);
}

TEST(Doorbell, TimesOutWithoutARing) {
  Doorbell b;
  const auto t0 = Clock::now();
  EXPECT_EQ(b.wait([] { return false; }, std::chrono::milliseconds(5)),
            Doorbell::Wake::timeout);
  EXPECT_GE(Clock::now() - t0, std::chrono::milliseconds(5));
}

TEST(Doorbell, RingWakesASleeperAndRelays) {
  for (const bool relay : {false, true}) {
    SCOPED_TRACE(relay ? "relayed" : "direct");
    Doorbell own;
    Doorbell via;
    if (relay) via.set_relay(&own);
    std::atomic<bool> work{false};
    std::thread ringer([&] {
      while (own.sleepers() == 0) std::this_thread::yield();
      work.store(true, std::memory_order_release);
      (relay ? via : own).ring();
    });
    const Doorbell::Wake w =
        own.wait([&] { return work.load(std::memory_order_acquire); }, kLong);
    ringer.join();
    EXPECT_NE(w, Doorbell::Wake::timeout);
    EXPECT_TRUE(work.load());
  }
}

TEST(Doorbell, FourThreadRingSleepLosesNoWakeUp) {
  // Two sleeper/ringer pairs on one bell, so every ring also wakes the
  // other pair's sleeper. A ringer publishes one token, rings, and waits
  // for its sleeper to consume it; a sleeper waits for the next token. A
  // wait that times out although its token was published lost a wake-up.
  constexpr int kRounds = 3000;
  constexpr auto kTimeout = std::chrono::milliseconds(500);
  Doorbell bell;
  struct Pair {
    std::atomic<int> token{0};
    std::atomic<int> consumed{0};
  };
  Pair pairs[2];
  std::atomic<int> lost{0};
  std::atomic<int> rung{0};
  std::vector<std::thread> threads;
  for (Pair& p : pairs) {
    threads.emplace_back([&bell, &p] {
      for (int i = 1; i <= kRounds; ++i) {
        // Now and then let the sleeper get all the way into the kernel.
        if (i % 8 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        p.token.store(i, std::memory_order_release);
        bell.ring();
        while (p.consumed.load(std::memory_order_acquire) < i) {
          std::this_thread::yield();
        }
      }
    });
    threads.emplace_back([&bell, &p, &lost, &rung, kTimeout] {
      int seen = 0;
      while (seen < kRounds) {
        const Doorbell::Wake w = bell.wait(
            [&] { return p.token.load(std::memory_order_acquire) > seen; },
            kTimeout);
        const int now = p.token.load(std::memory_order_acquire);
        if (w == Doorbell::Wake::timeout && now > seen) ++lost;
        if (w == Doorbell::Wake::rung) ++rung;
        if (now > seen) {
          seen = now;
          p.consumed.store(seen, std::memory_order_release);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(lost.load(), 0);
  EXPECT_GT(rung.load(), kRounds / 8) << "sleepers were rarely rung awake";
  EXPECT_EQ(bell.sleepers(), 0u);
}

/// Rank 0's default VCI, its bell, and a helper polling it.
struct QuietHelper {
  explicit QuietHelper(World& w)
      : bell(core_detail::vci_bell(w.vci(0, 0))), pt(w.null_stream(0)) {}

  /// Block until the helper starts a new bell wait. Spins rather than
  /// sleeps, so the wait is fresh: nearly all of its 1 ms safety timeout is
  /// still ahead when this returns.
  bool asleep() {
    const auto give_up = Clock::now() + kLong;
    while (bell.sleepers() == 0 || pt.rungs().bell == naps) {
      if (Clock::now() > give_up) return false;
      std::this_thread::yield();
    }
    naps = pt.rungs().bell;
    return true;
  }

  /// Once the helper sleeps, run `ring` and time until it leaves the
  /// bell (not until its next poll ends: that poll may copy a chunk).
  std::chrono::microseconds woken_by(const std::function<void()>& ring) {
    if (!asleep()) return kLong;
    const std::uint64_t polls = pt.iterations();
    const auto t0 = Clock::now();
    ring();
    while (bell.sleepers() != 0 && pt.iterations() == polls &&
           Clock::now() - t0 < kLong) {
      std::this_thread::yield();
    }
    return std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - t0);
  }

  Doorbell& bell;
  task::ProgressThread pt;
  std::uint64_t naps = 0;
};

/// A ring source that does not ring wakes the helper only by its 1 ms
/// safety timeout, nearly all of which is ahead when the source acts. The
/// best of several self-contained tries (`once` returns one latency) keeps
/// a descheduled thread on a loaded host from failing the check.
void expect_wakes_early(
    const char* source,
    const std::function<std::chrono::microseconds(int try_no)>& once) {
  std::chrono::microseconds best = kLong;
  for (int t = 0; t < 10 && best >= core_detail::kQuietNap * 3 / 4; ++t) {
    best = std::min(best, once(t));
  }
  EXPECT_LT(best, core_detail::kQuietNap * 3 / 4)
      << source << ": best wake latency " << best.count() << " us";
}

const dtype::Datatype kByte = dtype::Datatype::byte();
const dtype::Datatype kInt = dtype::Datatype::int32();
constexpr std::size_t kLmtBytes = 256 * 1024;  // above the shm eager limit

TEST(DoorbellRingSources, EachWakesAQuietHelper) {
  WorldConfig cfg{.nranks = 2};
  auto w = World::create(cfg);
  Comm c0 = w->comm_world(0);
  Comm c1 = w->comm_world(1);
  QuietHelper h(*w);

  expect_wakes_early("route_send to the VCI", [&](int t) {
    std::int32_t in = 0;
    std::int32_t out = 7;
    Request r = c0.irecv(&in, 1, kInt, 1, t);
    const auto us = h.woken_by([&] { c1.send(&out, 1, kInt, 0, t); });
    r.wait();
    EXPECT_EQ(in, 7);
    return us;
  });
  expect_wakes_early("irecv filing an LMT receive", [&](int t) {
    std::vector<std::byte> out(kLmtBytes, std::byte{3});
    std::vector<std::byte> in(kLmtBytes);
    Request s = c1.isend(out.data(), kLmtBytes, kByte, 0, 100 + t);
    // Wait until the helper has taken the RTS in as unexpected.
    while (w->vci_match_counters(0, 0).unexpected == 0) {
      std::this_thread::yield();
    }
    Request r;
    const auto us = h.woken_by(
        [&] { r = c0.irecv(in.data(), kLmtBytes, kByte, 1, 100 + t); });
    wait_on_stream(s, w->null_stream(1));
    r.wait();
    EXPECT_EQ(in.back(), std::byte{3});
    return us;
  });
  expect_wakes_early("the receiver publishing to the sender's VCI",
                     [&](int t) {
    std::vector<std::byte> out(kLmtBytes, std::byte{5});
    std::vector<std::byte> in(kLmtBytes);
    Request s = c0.isend(out.data(), kLmtBytes, kByte, 1, 200 + t);
    Request r = c1.irecv(in.data(), kLmtBytes, kByte, 0, 200 + t);
    // Rank 1 takes the RTS in: matching it publishes the buffer.
    const auto us = h.woken_by([&] {
      while (stream_progress(w->null_stream(1)) == 0) {
      }
    });
    wait_on_stream(r, w->null_stream(1));
    s.wait();
    EXPECT_EQ(in.front(), std::byte{5});
    return us;
  });
  expect_wakes_early("async_start", [&](int) {
    std::atomic<bool> ran{false};
    const auto us = h.woken_by([&] {
      async_start(
          [&ran] {
            ran.store(true);
            return AsyncResult::done;
          },
          w->null_stream(0));
    });
    while (!ran.load()) std::this_thread::yield();
    return us;
  });
  expect_wakes_early("ProgressEngine::attach", [&](int) {
    task::ProgressEngine eng(*w);
    const auto us = h.woken_by([&] { eng.attach(w->null_stream(0)); });
    eng.stop();
    return us;
  });
  h.pt.stop();
  w->finalize_rank(0);
  w->finalize_rank(1);
}

TEST(DoorbellRingSources, StopWakesASleepingHelper) {
  auto w = World::create(WorldConfig{.nranks = 1});
  expect_wakes_early("ProgressThread::stop", [&](int) {
    QuietHelper h(*w);
    if (!h.asleep()) return kLong;
    const auto t0 = Clock::now();
    h.pt.stop();
    return std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - t0);
  });
}

}  // namespace
