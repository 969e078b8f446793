// mpx/task/progress_thread.hpp
//
// Stream-scoped progress helper thread — the Fig. 5(b) remedy done right
// (§5.1): instead of an implementation-global async-progress thread that
// contends with every MPI call under MPI_THREAD_MULTIPLE, the application
// spins progress on exactly the stream(s) that need it, where it knows by
// design that background progress is required. Its loop is the one every
// blocking wait runs (core_detail::poll_until, wait_policy.hpp). When every
// VCI it serves is quiet, an empty round goes straight to a doorbell wait
// that the runtime rings when work arrives, so an idle helper burns no
// core at all (paper §5.1's cost argument for a global helper). A VCI that
// is not quiet — NIC traffic in flight, async hooks pending — keeps the
// spin/yield/sleep ladder of WorldConfig::wait_*.
//
// It is the library's only engine/helper polling loop. The adaptive engine
// (task::ProgressEngine) runs its dedicated mode on one of these per
// promoted VCI, and its shared mode on one more whose poll callable polls
// the engine's shared VCIs round-robin.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>

#include "mpx/base/thread.hpp"
#include "mpx/core/stream.hpp"
#include "mpx/core/wait_policy.hpp"

namespace mpx::task {

/// RAII progress thread. Starts on construction, stops and joins on
/// destruction.
///
/// Threading contract: the helper thread only ever calls its poll callable
/// — stream_progress() for the Stream form — which takes the stream's VCI
/// lock (rank vci) and, transitively, transport locks (rank transport*) —
/// the same order every application thread uses, so adding a helper thread
/// can never introduce a lock-order cycle. A custom poll callable must keep
/// that contract: poll progress entry points, block nowhere. All
/// members it shares with the owner (stop_, counters) are atomics; stop()
/// is safe to call from any thread other than the helper itself, idempotent,
/// and safe to race with the destructor (exactly one caller joins, the rest
/// block until the join is done), and its return fences the thread's final
/// counter publish — iterations()/productive()/rungs() read after stop()
/// see the thread's last poll.
class ProgressThread {
 public:
  /// Drive progress on one stream: the poll is stream_progress(stream),
  /// and the thread sleeps on the stream's VCI bell while the VCI is quiet.
  explicit ProgressThread(Stream stream);
  /// Drive an arbitrary poll: `poll` returns nonzero when it made progress.
  /// The idle backoff follows `world`'s wait-ladder config
  /// (WorldConfig::wait_*), with timed sleeps.
  ProgressThread(const World& world, std::function<int()> poll);
  /// As above, and sleep on `bell` whenever `quiet()` reports every VCI
  /// the poll serves quiet (core_detail::vci_quiet). Each of those VCIs
  /// must ring `bell` (core_detail::vci_relay), and `bell` must outlive the
  /// thread.
  ProgressThread(const World& world, std::function<int()> poll,
                 base::Doorbell* bell, std::function<bool()> quiet);
  ~ProgressThread();

  ProgressThread(const ProgressThread&) = delete;
  ProgressThread& operator=(const ProgressThread&) = delete;

  /// Ask the thread to stop and wait for it.
  void stop();

  /// Poll calls issued so far (lifetime total).
  std::uint64_t iterations() const {
    return iterations_.load(std::memory_order_relaxed);
  }
  /// Poll calls that reported progress (lifetime total).
  std::uint64_t productive() const {
    return productive_.load(std::memory_order_relaxed);
  }
  /// Idle-backoff rung occupancy of this thread (monotonic): how many empty
  /// polls were followed by a spin, a yield, a sleep or a quiet bell wait.
  core_detail::WaitLadderCounters::Snapshot rungs() const {
    return rungs_.snapshot();
  }

 private:
  void run();

  std::function<int()> poll_;
  core_detail::WaitPolicy wait_;
  base::Doorbell* bell_ = nullptr;
  std::function<bool()> quiet_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> iterations_{0};
  std::atomic<std::uint64_t> productive_{0};
  core_detail::WaitLadderCounters rungs_;
  std::once_flag join_once_;
  base::ScopedThread thread_;
};

}  // namespace mpx::task
