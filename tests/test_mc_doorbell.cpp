// Model-check: the doorbell (base::Doorbell) an idle poller sleeps on.
// A sleeper registers, takes its last look for work and futex-waits; a
// ringer publishes work and rings (two ringers: the second may skip its
// wake when the first's covers the sleeper). Under the explorer
// mc::futex_wait has no timeout, so a wake-up that is lost — the sleeper
// waits although a ringer published — leaves every virtual thread blocked,
// which the explorer reports as a deadlock.
//
// Includes a seeded-mutation self-test: mc::mut::doorbell_ring_unfenced
// drops the ringer's fence, so its relaxed reads of the sleeper count and
// the word may be stale. The checker must find the lost wake-up.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>

#include "mpx/base/doorbell.hpp"
#include "mpx/mc/mc.hpp"
#include "mpx/mc/sync.hpp"

#if MPX_MODEL_CHECK

namespace mc = mpx::mc;
using mpx::base::Doorbell;

namespace {

/// The model ignores it; a real run never reaches it.
constexpr std::chrono::microseconds kNever{60'000'000};

/// Sleeper (virtual thread 0) vs `ringers` ringers: `rounds` pieces of
/// work each, each published and rung once. The sleeper waits until it has
/// seen them all; every wait that is not answered by its last look must
/// end rung. With two ringers, one may skip its wake because the other's
/// already covers the sleeper (the ARMED bit).
void sleeper_vs_ringers(int ringers, int rounds, bool relay) {
  Doorbell own;
  Doorbell via;  // rung by the ringers, relaying to `own`
  if (relay) via.set_relay(&own);
  mc::atomic<int> work{0};
  const int total = ringers * rounds;

  const auto ring = [&] {
    for (int i = 0; i < rounds; ++i) {
      work.fetch_add(1, std::memory_order_release);
      (relay ? via : own).ring();
    }
  };
  mc::thread first(ring);
  std::optional<mc::thread> second;
  if (ringers > 1) second.emplace(ring);
  int seen = 0;
  while (seen < total) {
    const Doorbell::Wake w = own.wait(
        [&] { return work.load(std::memory_order_acquire) > seen; }, kNever);
    mc::check(w != Doorbell::Wake::timeout, "a modeled wait never times out");
    seen = work.load(std::memory_order_acquire);
  }
  mc::check(own.sleepers() == 0, "every sleeper unregistered");
  if (second) second->join();
  first.join();
}

void one_round() { sleeper_vs_ringers(1, 1, false); }
void two_rounds() { sleeper_vs_ringers(1, 2, false); }
void relayed() { sleeper_vs_ringers(1, 1, true); }
void two_ringers() { sleeper_vs_ringers(2, 1, false); }

mc::Result run(const char* name, void (*body)()) {
  mc::Options opt;
  opt.name = name;
  return mc::explore(opt, body);
}

}  // namespace

TEST(McDoorbell, NoWakeUpIsLostAllSchedules) {
  const mc::Result res = run("doorbell", one_round);
  RecordProperty("summary", res.summary());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_TRUE(res.exhausted || res.bound_limited) << res.summary();
  EXPECT_GT(res.schedules, 1);
}

TEST(McDoorbell, RepeatedRingsReuseTheWordAllSchedules) {
  const mc::Result res = run("doorbell_two_rounds", two_rounds);
  RecordProperty("summary", res.summary());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_GT(res.schedules, 1);
}

TEST(McDoorbell, RelayedRingWakesTheRelayAllSchedules) {
  const mc::Result res = run("doorbell_relay", relayed);
  RecordProperty("summary", res.summary());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_GT(res.schedules, 1);
}

TEST(McDoorbell, SecondRingerSkipsOnlyCoveredWakesAllSchedules) {
  const mc::Result res = run("doorbell_two_ringers", two_ringers);
  RecordProperty("summary", res.summary());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_GT(res.schedules, 1);
}

TEST(McDoorbell, SeededMutationUnfencedRingIsCaught) {
  mc::mut::doorbell_ring_unfenced = true;
  const mc::Result res = run("doorbell_unfenced", one_round);
  mc::mut::doorbell_ring_unfenced = false;
  RecordProperty("summary", res.summary());
  ASSERT_TRUE(res.failed)
      << "an unfenced ring must lose a wake-up: " << res.summary();
  EXPECT_NE(res.failure.find("deadlock"), std::string::npos) << res.failure;
  EXPECT_FALSE(res.replay.empty());
}

#else
TEST(McDoorbell, SkippedWithoutModelCheck) { GTEST_SKIP(); }
#endif
