// mpx/core/wait_policy.hpp
//
// The library's one "idle while waiting" loop, poll_until(), and the
// adaptive spin -> yield -> sleep backoff it climbs.
//
// The paper's wait-block anatomy (§2) assumes the waiter IS the progress
// engine, and §3.5 reduces every blocking wait to "check completion, else
// drive progress". Every blocking wait, drain and progress thread in the
// library is that loop, and each runs it through poll_until(). A change to
// how waiters idle is made here, once. Waiters pick one of two policies:
//
//   * the World's ladder (wait_policy(world), WorldConfig::wait_*) for
//     waits whose completion a progress stage reports: Request::wait,
//     wait_on_stream, wait_all, wait_any, Comm::sendrecv,
//     World::finalize_rank, the topology-swap drain and task::ProgressThread
//     (which also runs the adaptive engine's shared and dedicated pollers);
//   * kFullRateSpin for progress_until and the waits built on it
//     (user_allreduce_int_sum, Future::get, Coro::wait, TaskGraph::wait,
//     TaskQueue::drain, RequestNotifier::drain). Their predicate is flipped
//     inside an async hook, and a hook reports only done or pending: a
//     drain whose tasks retire one by one looks as empty to the ladder as
//     a stuck one, so backing off would only delay the next observation
//     (Fig. 10's 0.09 us p50 becomes ~50 us on the sleep rung).
//
// Full-rate spinning is right when the waiter's polling moves its own
// message, but with more waiters than cores (fig09's thread-contention
// scenario) it steals cycles from the rank that is making progress. The
// ladder keeps the fast path fast (pure cpu_relax spin for the first `spin`
// empty rounds — an eager shm round trip completes well inside it) and
// degrades gracefully: `yield` rounds of sched-yield, then exponential
// sleeps capped at `sleep_max_us`. Any productive round resets the ladder
// to the spin phase.
//
// The doorbell (base::Doorbell, one per VCI slot), for progress helpers
// (task::ProgressThread). The runtime rings a VCI's bell whenever it makes
// the VCI pollable from outside its own progress: a route_send/
// route_send_eager to it (the parked-send flush included), a synthesized
// send completion, an LMT receive filed on it, the receiver publishing its
// buffer for a shared LMT copy (rings the sender), the last chunk of a
// shared copy landing (rings the receiver), an async_start hook, a pack or
// collective launch, a topology cutover and an engine attach. The bell
// wakes a poller and completes nothing: completion is still observed only
// through progress.
//
// A helper skips the ladder altogether when every VCI it serves is QUIET —
// no pending async hooks and no transport traffic in flight, so nothing
// can become pollable without a ring. It then goes from an empty round
// straight to its bell and sleeps until rung, with a kQuietNap safety
// timeout. A VCI that is not quiet keeps the ladder, whose sleep rung then
// waits on the bell for at most the backoff: NIC completions come due at
// deadlines and hooks finish outside the runtime, and nothing rings for
// either. App waits keep timed sleeps: a waiter asleep on a bell makes its
// waker pay a futex wake per message, and on fanin_rate that cost fell on
// the one receiver every sender waits for (lat_p50_us x1.24).
//
// Rung occupancy counters (WaitLadderCounters): every empty round
// increments the counter of the rung it lands on, or `bell` for a quiet
// helper's wait. Waiters charge the VCI they wait on (Vci::wait_rungs, read
// through World::vci_wait_rungs) — the adaptive progress engine's
// controller promotes on the yield and sleep rungs — and each
// ProgressThread charges its own counters, the evidence that an idle
// helper slept instead of spinning.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "mpx/base/doorbell.hpp"
#include "mpx/base/thread.hpp"

namespace mpx {
class World;
}  // namespace mpx

namespace mpx::core_detail {

/// Tunables (WorldConfig::wait_spin / wait_yield / wait_sleep_max_us).
/// Negative spin: spin forever with no pause between rounds (never yield
/// or sleep — the paper's original full-rate loop). Negative yield: never
/// sleep. sleep_max_us caps the exponential sleep rung.
struct WaitPolicy {
  int spin = 200;
  int yield = 32;
  int sleep_max_us = 64;
};

/// Never leave the spin rung: the paper's original full-rate loop, for
/// waits only an async hook can complete (see the header comment).
inline constexpr WaitPolicy kFullRateSpin{-1, -1, 0};

/// The ladder `world` configures, or the defaults above for a null world
/// (a generalized request has none). The one place a WaitPolicy is read
/// from a WorldConfig.
WaitPolicy wait_policy(const World* world);

/// Safety timeout of a quiet helper's bell wait: the longest a helper
/// sleeps when a wake-up it needs was never rung.
inline constexpr std::chrono::microseconds kQuietNap{1000};

/// Occupancy counters for the three ladder rungs — how many empty pauses
/// landed on each — plus `bell`, the empty rounds a quiet helper spent in a
/// bell wait instead. Monotonic; sample twice and subtract for windowed
/// rates. Raw std::atomic on purpose: lock-free accounting shared between
/// waiters and the engine controller, not modeled protocol state.
struct WaitLadderCounters {
  std::atomic<std::uint64_t> spin{0};   // mpxlint: allow(mc-coverage) accounting
  std::atomic<std::uint64_t> yield{0};  // mpxlint: allow(mc-coverage) accounting
  std::atomic<std::uint64_t> sleep{0};  // mpxlint: allow(mc-coverage) accounting
  std::atomic<std::uint64_t> bell{0};   // mpxlint: allow(mc-coverage) accounting

  /// Plain-value snapshot (relaxed: counters, not synchronization).
  struct Snapshot {
    std::uint64_t spin = 0;
    std::uint64_t yield = 0;
    std::uint64_t sleep = 0;
    std::uint64_t bell = 0;
  };
  Snapshot snapshot() const {
    return Snapshot{spin.load(std::memory_order_relaxed),
                    yield.load(std::memory_order_relaxed),
                    sleep.load(std::memory_order_relaxed),
                    bell.load(std::memory_order_relaxed)};
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

/// One waiter's position on the ladder. Constructed only by poll_until().
class WaitBackoff {
 public:
  WaitBackoff(WaitPolicy p, WaitLadderCounters* rungs, base::Doorbell* bell)
      : p_(p), rungs_(rungs), bell_(bell) {}

  /// Call after a progress round that moved something: restart the ladder.
  void reset() { idle_ = 0; }

  /// A quiet helper's empty round: wait on the bell until rung (at most
  /// kQuietNap), not on the ladder. Requires a bell.
  template <class Ready>
  void nap(Ready&& ready) {
    count(&WaitLadderCounters::bell);
    bell_->wait(ready, kQuietNap);
    reset();
  }

  /// Call after an empty progress round. `ready` is the bell's last look
  /// before the sleep rung waits on it.
  template <class Ready>
  void pause(Ready&& ready) {
    if (p_.spin < 0) {
      // Full rate: straight back to the next poll, as the paper's loop.
      count(&WaitLadderCounters::spin);
      return;
    }
    ++idle_;
    if (idle_ <= static_cast<long>(p_.spin)) {
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
    const std::chrono::microseconds us(
        backoff_sleep_us(past_spin - p_.yield - 1, p_.sleep_max_us));
    if (bell_ == nullptr) {
      std::this_thread::sleep_for(us);
    } else if (bell_->wait(ready, us) == base::Doorbell::Wake::ready) {
      reset();  // the last look moved something
    }
  }

 private:
  void count(std::atomic<std::uint64_t> WaitLadderCounters::* rung) {
    if (rungs_ != nullptr) {
      (rungs_->*rung).fetch_add(1, std::memory_order_relaxed);
    }
  }

  WaitPolicy p_;
  WaitLadderCounters* rungs_ = nullptr;
  base::Doorbell* bell_ = nullptr;
  long idle_ = 0;
};

/// The app waits' `quiet`: never skip the ladder.
struct NeverQuiet {
  bool operator()() const { return false; }
};

/// Until `done()` holds, call `poll()` — nonzero when it moved something —
/// and after every empty poll climb `policy`'s ladder, charging each rung
/// to `rungs` (nullable: then nothing is counted). `done()` is checked
/// before the first poll, so a wait that is already satisfied polls
/// nothing. A progress helper also passes its `bell` (see the header
/// comment): its sleep rung waits there, and while `quiet()` holds an
/// empty round naps on the bell instead of climbing the ladder.
template <class Poll, class Done, class Quiet = NeverQuiet>
void poll_until(WaitPolicy policy, WaitLadderCounters* rungs, Poll&& poll,
                Done&& done, base::Doorbell* bell = nullptr,
                Quiet&& quiet = Quiet{}) {
  WaitBackoff backoff{policy, rungs, bell};
  // The bell's last look: one more poll, then the wait's own predicate.
  const auto ready = [&] { return poll() != 0 || done(); };
  while (!done()) {
    if (poll() != 0) {
      backoff.reset();
    } else if (bell != nullptr && quiet()) {
      backoff.nap(ready);
    } else {
      backoff.pause(ready);
    }
  }
}

}  // namespace mpx::core_detail
