#include "mpx/base/thread.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <ctime>

#include "mpx/mc/sync.hpp"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace mpx::base {

void set_current_thread_name(const std::string& name) {
  // Linux limits thread names to 15 chars + NUL; truncate silently.
  std::string n = name.substr(0, 15);
  pthread_setname_np(pthread_self(), n.c_str());
}

bool futex_wait(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                std::chrono::steady_clock::time_point deadline) {
#if defined(__linux__)
  // FUTEX_WAIT_BITSET takes an absolute CLOCK_MONOTONIC deadline (the
  // steady_clock epoch), so an EINTR retry keeps the original deadline.
  static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      deadline.time_since_epoch())
                      .count();
  if (ns <= 0) return false;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  const long rc = ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word),
                            FUTEX_WAIT_BITSET_PRIVATE, expected, &ts, nullptr,
                            FUTEX_BITSET_MATCH_ANY);
  return !(rc == -1 && errno == ETIMEDOUT);
#else
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) return false;
  if (word->load(std::memory_order_acquire) == expected) {
    std::this_thread::sleep_for(std::min<std::chrono::steady_clock::duration>(
        deadline - now, std::chrono::microseconds(50)));
  }
  return true;
#endif
}

void futex_wake_all(std::atomic<std::uint32_t>* word) {
#if defined(__linux__)
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word),
            FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
#else
  (void)word;
#endif
}

}  // namespace mpx::base
