// mpx/mc/sync.hpp
//
// Shim synchronization types for the model checker.
//
// Production builds (MPX_MODEL_CHECK off): every shim is an alias of the
// raw primitive — mc::atomic<T> IS std::atomic<T>, mc::mutex IS std::mutex,
// mc::spinlock IS base::Spinlock. Zero overhead by construction (test_base
// pins this with a static_assert).
//
// Model-check builds: mc::atomic routes every load/store/RMW through the
// cooperative scheduler in src/mc/explorer.cpp, and mc::basic_mutex models
// lock ownership there while keeping a real recursive mutex engaged
// underneath so that (a) code running outside an exploration session
// behaves normally and (b) a session that degrades to free-run after a
// failure keeps real mutual exclusion. The modeled grant always happens
// before the real acquire, so the real mutex is uncontended under the
// scheduler's one-token-at-a-time regime.
#pragma once

#include <atomic>
#include <mutex>

#include "mpx/mc/mc.hpp"

#include <chrono>
#include <cstdint>

namespace mpx::base {
/// Block while `*word == expected`, until futex_wake_all(word) or
/// `deadline` (steady_clock). Returns false only when the deadline passed;
/// may return true spuriously. Linux futex; elsewhere a short sleep.
bool futex_wait(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                std::chrono::steady_clock::time_point deadline);
/// Wake every thread blocked in futex_wait on `word`.
void futex_wake_all(std::atomic<std::uint32_t>* word);
}  // namespace mpx::base

#if !MPX_MODEL_CHECK

#include <thread>

namespace mpx::base {
class Spinlock;  // defined in mpx/base/spinlock.hpp
}

namespace mpx::mc {
template <class T>
using atomic = std::atomic<T>;
using mutex = std::mutex;
using rec_mutex = std::recursive_mutex;
using spinlock = base::Spinlock;
using thread = std::thread;
inline void yield() { std::this_thread::yield(); }

/// std::atomic_thread_fence. ThreadSanitizer does not model fences (gcc
/// rejects them under -fsanitize=thread); code that needs one there uses an
/// equivalent read-modify-write instead.
inline void fence(std::memory_order mo) { std::atomic_thread_fence(mo); }

/// Wait/notify on a 32-bit word (base::futex_wait / futex_wake_all).
inline bool futex_wait(atomic<std::uint32_t>& word, std::uint32_t expected,
                       std::chrono::steady_clock::time_point deadline) {
  return base::futex_wait(&word, expected, deadline);
}
inline void futex_wake_all(atomic<std::uint32_t>& word) {
  base::futex_wake_all(&word);
}
}  // namespace mpx::mc

#else  // MPX_MODEL_CHECK

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace mpx::mc {

namespace detail {
template <class T>
std::uint64_t to_u64(T v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(T));
  return out;
}
template <class T>
T from_u64(std::uint64_t raw) {
  T out{};
  std::memcpy(&out, &raw, sizeof(T));
  return out;
}
}  // namespace detail

/// Instrumented std::atomic<T> replacement. Backed by a real std::atomic so
/// un-modeled contexts (setup before a session, free-run after a failure)
/// stay correct; modeled operations mirror the chosen value into the real
/// storage while holding the scheduler token.
template <class T>
class atomic {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "mc::atomic supports trivially copyable types up to 8 bytes");

 public:
  atomic() noexcept = default;
  constexpr atomic(T v) noexcept : v_(v) {}  // NOLINT(google-explicit-constructor)
  ~atomic() { detail::mc_forget_atomic(this); }
  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    std::uint64_t out;
    if (detail::mc_load(this, detail::to_u64(v_.load(std::memory_order_relaxed)),
                        static_cast<int>(mo), "atomic.load", &out)) {
      return detail::from_u64<T>(out);
    }
    return v_.load(mo);
  }

  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    if (detail::mc_store(this,
                         detail::to_u64(v_.load(std::memory_order_relaxed)),
                         detail::to_u64(v), static_cast<int>(mo),
                         "atomic.store")) {
      v_.store(v, std::memory_order_relaxed);
      return;
    }
    v_.store(v, mo);
  }

  T exchange(T v, std::memory_order mo = std::memory_order_seq_cst) {
    std::uint64_t old;
    if (detail::mc_rmw_exchange(
            this, detail::to_u64(v_.load(std::memory_order_relaxed)),
            detail::to_u64(v), static_cast<int>(mo), "atomic.exchange",
            &old)) {
      v_.store(v, std::memory_order_relaxed);
      return detail::from_u64<T>(old);
    }
    return v_.exchange(v, mo);
  }

  T fetch_add(T delta, std::memory_order mo = std::memory_order_seq_cst)
    requires std::is_integral_v<T>
  {
    std::uint64_t old;
    if (detail::mc_rmw_add(
            this, detail::to_u64(v_.load(std::memory_order_relaxed)),
            detail::to_u64(delta), static_cast<int>(mo), "atomic.fetch_add",
            &old)) {
      const T prev = detail::from_u64<T>(old);
      v_.store(static_cast<T>(prev + delta), std::memory_order_relaxed);
      return prev;
    }
    return v_.fetch_add(delta, mo);
  }

  T fetch_sub(T delta, std::memory_order mo = std::memory_order_seq_cst)
    requires std::is_integral_v<T>
  {
    return fetch_add(static_cast<T>(T(0) - delta), mo);
  }

  /// Modeled as a CAS loop: the same outcomes as the single RMW.
  T fetch_or(T bits, std::memory_order mo = std::memory_order_seq_cst)
    requires std::is_integral_v<T>
  {
    T cur = load(std::memory_order_relaxed);
    while (!compare_exchange_strong(cur, static_cast<T>(cur | bits), mo)) {
    }
    return cur;
  }

  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order mo = std::memory_order_seq_cst) {
    std::uint64_t observed;
    bool success;
    if (detail::mc_cas(this,
                       detail::to_u64(v_.load(std::memory_order_relaxed)),
                       detail::to_u64(expected), detail::to_u64(desired),
                       static_cast<int>(mo), "atomic.cas", &observed,
                       &success)) {
      if (success) {
        v_.store(desired, std::memory_order_relaxed);
      } else {
        expected = detail::from_u64<T>(observed);
      }
      return success;
    }
    return v_.compare_exchange_strong(expected, desired, mo);
  }

  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order mo = std::memory_order_seq_cst) {
    // The model never fails spuriously; weak == strong under the checker.
    return compare_exchange_strong(expected, desired, mo);
  }

  /// The real storage, for waits outside a session (futex_wait below).
  std::atomic<T>& native() noexcept { return v_; }

 private:
  std::atomic<T> v_{};
};

/// Modeled mutex. Ownership, recursion depth, blocking, and release-clock
/// propagation are tracked by the scheduler; the embedded real recursive
/// mutex carries the weight outside sessions and in free-run mode.
template <bool Recursive>
class basic_mutex {
 public:
  basic_mutex() = default;
  ~basic_mutex() { detail::mtx_destroy(this); }
  basic_mutex(const basic_mutex&) = delete;
  basic_mutex& operator=(const basic_mutex&) = delete;

  void lock() {
    detail::mtx_lock(this, Recursive, "mutex.lock");
    real_.lock();
  }

  bool try_lock() {
    bool acquired;
    if (detail::mtx_try_lock(this, Recursive, "mutex.try_lock", &acquired)) {
      if (acquired) real_.lock();  // modeled grant → real lock is free
      return acquired;
    }
    return real_.try_lock();
  }

  void unlock() {
    real_.unlock();
    detail::mtx_unlock(this);
  }

 private:
  // Recursive even for the non-recursive flavor: the modeled layer reports
  // self-relock as a deadlock before the real mutex is touched, and a
  // recursive backing cannot self-deadlock during free-run draining.
  std::recursive_mutex real_;
};

using mutex = basic_mutex<false>;
using rec_mutex = basic_mutex<true>;

/// Modeled fence (see detail::mc_fence); the real one outside a session.
inline void fence(std::memory_order mo) {
  if (!detail::mc_fence(static_cast<int>(mo))) std::atomic_thread_fence(mo);
}

/// Modeled FUTEX_WAIT: inside a session the deadline is ignored and only
/// futex_wake_all ends the wait, so a lost wake-up shows as a deadlock.
inline bool futex_wait(atomic<std::uint32_t>& word, std::uint32_t expected,
                       std::chrono::steady_clock::time_point deadline) {
  if (detail::mc_futex_wait(
          &word, word.native().load(std::memory_order_relaxed), expected)) {
    return true;
  }
  return base::futex_wait(&word.native(), expected, deadline);
}
inline void futex_wake_all(atomic<std::uint32_t>& word) {
  if (!detail::mc_futex_wake(&word)) base::futex_wake_all(&word.native());
}

}  // namespace mpx::mc

// Under MPX_MODEL_CHECK, mc::spinlock is still base::Spinlock: the TTAS
// protocol in spinlock.hpp runs on an mc::atomic<bool>, so the lock's own
// acquire/release protocol is what gets model-checked (not a black box).
// Forward-declared (not included) because spinlock.hpp includes this header.
namespace mpx::base {
class Spinlock;
}
namespace mpx::mc {
using spinlock = base::Spinlock;
}

#endif  // MPX_MODEL_CHECK
