// mpx/core/wait_policy.hpp
//
// Adaptive spin -> yield -> sleep backoff for blocking wait loops.
//
// The paper's wait-block anatomy (§2) assumes the waiter IS the progress
// engine: wait() calls progress in a loop until the completion flag flips.
// That is the right shape when the waiter's polling moves its own message —
// but with more waiters than cores (fig09's thread-contention scenario),
// full-rate spinning steals cycles from the rank that is actually making
// progress. The ladder here keeps the fast path fast (pure cpu_relax spin
// for the first `spin` empty rounds — an eager shm round-trip completes well
// inside it) and degrades gracefully: `yield` rounds of sched-yield, then
// exponential sleeps capped at `sleep_max_us`. Any productive progress round
// resets the ladder to the spin phase.
//
// The same ladder paces every idle progress thread: task::ProgressThread —
// which also runs the adaptive engine's shared and dedicated pollers —
// pause()s on it after each empty poll.
//
// Rung occupancy counters (WaitLadderCounters): every pause() increments the
// counter of the rung it lands on. Wired per VCI (request.cpp passes the
// request's VCI counters), per engine worker and per ProgressThread, they
// answer "who is burning a core waiting on this endpoint" — the signal the
// adaptive progress engine's controller promotes/demotes on, and the
// evidence that an idle helper thread actually reached the sleep rung
// instead of spinning.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "mpx/base/thread.hpp"

namespace mpx::core_detail {

/// Tunables (WorldConfig::wait_spin / wait_yield / wait_sleep_max_us;
/// MPX_WAIT_SPIN / MPX_WAIT_YIELD / MPX_WAIT_SLEEP_MAX). Negative spin:
/// spin forever (never yield or sleep — the paper's original full-rate
/// loop). Negative yield: never sleep. sleep_max_us caps the exponential
/// sleep rung. Blocking waits and the task-layer progress threads read the
/// same World settings, so one set of cvars governs every idle poller in
/// the process.
struct WaitPolicy {
  int spin = 200;
  int yield = 32;
  int sleep_max_us = kDefaultSleepMaxUs;

  static constexpr int kDefaultSleepMaxUs = 64;
};

/// Occupancy counters for the three ladder rungs: how many empty pauses
/// landed on each. Monotonic; sample twice and subtract for windowed rates.
/// Raw std::atomic on purpose: lock-free accounting shared between waiters
/// and the engine controller, not modeled protocol state.
struct WaitLadderCounters {
  std::atomic<std::uint64_t> spin{0};   // mpxlint: allow(mc-coverage) accounting
  std::atomic<std::uint64_t> yield{0};  // mpxlint: allow(mc-coverage) accounting
  std::atomic<std::uint64_t> sleep{0};  // mpxlint: allow(mc-coverage) accounting

  /// Plain-value snapshot (relaxed: counters, not synchronization).
  struct Snapshot {
    std::uint64_t spin = 0;
    std::uint64_t yield = 0;
    std::uint64_t sleep = 0;
  };
  Snapshot snapshot() const {
    return Snapshot{spin.load(std::memory_order_relaxed),
                    yield.load(std::memory_order_relaxed),
                    sleep.load(std::memory_order_relaxed)};
  }
};

/// Exponential-sleep length of the ladder's sleep rung: empty round `idx`
/// (0-based, counting from the first sleeping round) sleeps 1us << idx
/// capped at `max_us`.
inline std::int64_t backoff_sleep_us(long idx, int max_us) {
  const unsigned shift = idx < 0 ? 0U : (idx < 16 ? static_cast<unsigned>(idx)
                                                  : 16U);
  const std::int64_t us = std::int64_t{1} << shift;
  const std::int64_t cap = max_us < 1 ? 1 : max_us;
  return us < cap ? us : cap;
}

class WaitBackoff {
 public:
  explicit WaitBackoff(WaitPolicy p, WaitLadderCounters* counters = nullptr)
      : p_(p), counters_(counters) {}

  /// Call after a progress round that moved something: restart the ladder.
  void reset() { idle_ = 0; }

  /// Call after an empty progress round.
  void pause() {
    ++idle_;
    if (p_.spin < 0 || idle_ <= static_cast<long>(p_.spin)) {
      count(&WaitLadderCounters::spin);
      base::cpu_relax();
      return;
    }
    const long past_spin = idle_ - p_.spin;
    if (p_.yield < 0 || past_spin <= static_cast<long>(p_.yield)) {
      count(&WaitLadderCounters::yield);
      std::this_thread::yield();
      return;
    }
    count(&WaitLadderCounters::sleep);
    std::this_thread::sleep_for(std::chrono::microseconds(
        backoff_sleep_us(past_spin - p_.yield - 1, p_.sleep_max_us)));
  }

 private:
  void count(std::atomic<std::uint64_t> WaitLadderCounters::* rung) {
    if (counters_ != nullptr) {
      (counters_->*rung).fetch_add(1, std::memory_order_relaxed);
    }
  }

  WaitPolicy p_;
  WaitLadderCounters* counters_ = nullptr;
  long idle_ = 0;
};

}  // namespace mpx::core_detail
