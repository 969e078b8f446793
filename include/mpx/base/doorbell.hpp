// mpx/base/doorbell.hpp
//
// A doorbell: where an idle poller sleeps until someone gives it work.
//
// A futex word plus a sleeper count, on a cache line of their own. The
// word's low bit is ARMED: some sleeper registered since the last wake.
// The protocol makes a lost wake-up impossible without locking either side:
//
//   sleeper: raise the count, set ARMED (its futex value is the word with
//            the bit set), fence, look for work once more (`ready`), and
//            only then FUTEX_WAIT on that value — which returns at once if
//            the word moved since;
//   ringer:  make the work visible, fence, and only when somebody sleeps
//            and ARMED is set, move the word to the next even value (CAS)
//            and FUTEX_WAKE every sleeper.
//
// The two fences order each side's write before its read, so either the
// ringer sees the sleeper (and wakes it), or the sleeper's last look sees
// the work (and does not sleep). A ringer that finds ARMED clear skips the
// syscall: every registered sleeper waits on an older word and is already
// woken, so a burst of rings costs one wake. When nobody sleeps a ring
// costs one fence and one load of a line nobody writes. Under
// ThreadSanitizer, which does not model fences, the ringer reads the word
// with a read-modify-write instead, which orders the same way.
//
// A bell may relay: ringing it also rings the relay bell, so a poller that
// serves several bells' owners (the progress engine's shared poller)
// sleeps on one bell of its own. The relay must outlive every ring.
//
// Modeled by tests/test_mc_doorbell.cpp: mc::futex_wait has no timeout
// under the explorer, so a lost wake-up is a deadlock report.
#pragma once

#include <chrono>
#include <cstdint>

#include "mpx/mc/sync.hpp"

#if defined(__SANITIZE_THREAD__)
#define MPX_DOORBELL_RMW_LOOK 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MPX_DOORBELL_RMW_LOOK 1
#endif
#endif
#ifndef MPX_DOORBELL_RMW_LOOK
#define MPX_DOORBELL_RMW_LOOK 0
#endif

namespace mpx::base {

class alignas(64) Doorbell {
 public:
  /// How a wait() ended.
  enum class Wake : std::uint8_t {
    ready,    ///< the last look found work; the caller never slept
    rung,     ///< a ring woke it
    timeout,  ///< the timeout passed with no ring
  };

  Doorbell() = default;
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// Wake every sleeper. Call after making the new work visible.
  void ring() noexcept {
#if !MPX_DOORBELL_RMW_LOOK
#if MPX_MODEL_CHECK
    if (!mc::mut::doorbell_ring_unfenced)
#endif
      mc::fence(std::memory_order_seq_cst);
#endif
    wake_armed();
    if (Doorbell* r = relay_.load(std::memory_order_acquire)) {
      r->wake_armed();
    }
  }

  /// Sleep until rung, or until `timeout` passes. `ready()` is the last
  /// look for work, taken after this sleeper is visible to ringers: when it
  /// returns true the call returns Wake::ready without sleeping. Spurious
  /// kernel wake-ups are absorbed; a ring that lands before the wait
  /// starts ends it at once.
  template <class Ready>
  Wake wait(Ready&& ready, std::chrono::microseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    const std::uint32_t seq =
        word_.fetch_or(kArmed, std::memory_order_seq_cst) | kArmed;
#if !MPX_DOORBELL_RMW_LOOK
    mc::fence(std::memory_order_seq_cst);
#endif
    Wake out = Wake::ready;
    if (!ready()) {
      out = Wake::rung;
      while (word_.load(std::memory_order_acquire) == seq) {
        if (!mc::futex_wait(word_, seq, deadline)) {
          if (word_.load(std::memory_order_acquire) == seq) {
            out = Wake::timeout;
          }
          break;
        }
      }
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return out;
  }

  /// Also ring `b` (null: nobody) on every ring of this bell.
  void set_relay(Doorbell* b) noexcept {
    relay_.store(b, std::memory_order_release);
  }

  /// Threads inside wait() now (racy; for tests and diagnostics).
  std::uint32_t sleepers() const noexcept {
    return sleepers_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint32_t kArmed = 1;

  /// The ringer's half, after ring()'s fence: wake the sleepers that armed
  /// since the last wake, if any.
  void wake_armed() noexcept {
#if MPX_DOORBELL_RMW_LOOK
    std::uint32_t w = word_.fetch_add(0, std::memory_order_seq_cst);
#else
    if (sleepers_.load(std::memory_order_relaxed) == 0) return;
    std::uint32_t w = word_.load(std::memory_order_relaxed);
#endif
    while ((w & kArmed) != 0) {
      if (word_.compare_exchange_weak(w, w + 1, std::memory_order_seq_cst)) {
        mc::futex_wake_all(word_);
        return;
      }
    }
  }

  mc::atomic<std::uint32_t> word_{0};
  mc::atomic<std::uint32_t> sleepers_{0};
  mc::atomic<Doorbell*> relay_{nullptr};
};

}  // namespace mpx::base
