// mpx/core/topology.hpp
//
// The RCU seam between World's control plane and its datapath.
//
// A TopologySnapshot is an immutable view of everything the datapath needs
// to route a message: rank count, node layout, the ordered transport list,
// and the O(1) compiled route table (PR 5's flat first-match table, now
// carried by the snapshot instead of frozen inside World::State). The
// control plane builds a successor snapshot off to the side and publishes
// it through a TopologyHandle with one atomic exchange; the datapath pins
// the current snapshot with exactly ONE acquire-load per poll/send and
// never takes a lock.
//
// PUBLICATION PROTOCOL (the part the mc suite explores):
//  - Readers only pin inside a VCI critical section: under v.mu they
//    acquire-load the handle once (topology_pin), advertise the observed
//    epoch with a release store, and use the snapshot only until v.mu is
//    released. Sections of one VCI are serialized by v.mu.
//  - The writer publishes the successor (exchange, acq_rel), then runs a
//    GRACE PERIOD over every live VCI before reclaiming the predecessor:
//    a VCI whose advertised epoch is already >= the new epoch has ended
//    its last old-snapshot section (sections are serialized, and the
//    epoch store is release / the writer's read is acquire, so the end of
//    that section happens-before the writer's reclaim); otherwise the
//    writer lock-passes v.mu (topology_quiesce), which waits out any
//    section still holding the old pointer — and every later section
//    happens-after the writer's exchange through the mutex, so write-read
//    coherence forces it to load the successor.
//  - Only after the grace period does the writer delete the predecessor.
//
// ROUTE FENCING: each route-table entry is a pointer tagged in bit 0.
// A fenced entry marks a (src, dst) pair mid-swap: the datapath parks new
// sends for the pair (Vci::fence_parked) instead of injecting them, which
// lets the control plane drain the pair's in-flight count to zero and
// cut over to the new carrier with per-pair FIFO intact. The fenced
// entry's pointer is already the PENDING NEW transport, so protocol
// selection (caps/limits) during the fence matches the carrier the parked
// messages will eventually ride.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mpx/mc/sync.hpp"

namespace mpx::transport {
class Transport;
}

namespace mpx::core_detail {

/// In-flight message counts per (src, dst) pair, split by writer so that
/// no counter line is shared between ranks: rank src's senders bump
/// `sent[src][dst]` at injection, rank dst's receivers bump
/// `recvd[dst][src]` at sink delivery, and in flight = sent - recvd. Each
/// rank's row starts on its own cache line. Storage is datapath-OWNED and
/// outlives every snapshot that points at it.
///
/// Relaxed increments on purpose: the counters are read by the draining
/// control thread, which is ordered against every send-side increment
/// through the fence grace period's v.mu handoff and against every
/// receive-side increment by driving the receiving VCI's progress itself
/// (same thread). The RMW keeps a row exact across the VCIs of one rank,
/// which may send or receive concurrently.
class PairCounters {
  static constexpr std::size_t kPerLine = 8;
  struct alignas(64) Line {
    mc::atomic<std::int64_t> c[kPerLine];
  };

 public:
  PairCounters() = default;
  // Snapshots point at this storage.
  PairCounters(const PairCounters&) = delete;
  PairCounters& operator=(const PairCounters&) = delete;

  void resize(int nranks) {
    const auto n = static_cast<std::size_t>(nranks);
    row_lines_ = (n + kPerLine - 1) / kPerLine;
    sent_ = std::vector<Line>(n * row_lines_);
    recvd_ = std::vector<Line>(n * row_lines_);
  }

  void count_sent(int src, int dst) {
    sent(src, dst).fetch_add(1, std::memory_order_relaxed);
  }
  void count_recvd(int src, int dst) {
    recvd(src, dst).fetch_add(1, std::memory_order_relaxed);
  }

  /// Messages injected src -> dst and not yet delivered. Reads `recvd`
  /// first: `sent` only grows, so a read racing live sends overstates the
  /// count rather than understating it. The drain relies only on the
  /// fenced case: sends have stopped, `sent` is final, and zero means
  /// every injected message was delivered.
  std::int64_t inflight(int src, int dst) const {
    const std::int64_t r = recvd(src, dst).load(std::memory_order_acquire);
    const std::int64_t s = sent(src, dst).load(std::memory_order_acquire);
    return s - r;
  }

 private:
  /// Row `src` of the sent counters, row `dst` of the received ones.
  mc::atomic<std::int64_t>& sent(int src, int dst) const {
    return cell(sent_, src, dst);
  }
  mc::atomic<std::int64_t>& recvd(int src, int dst) const {
    return cell(recvd_, dst, src);
  }
  mc::atomic<std::int64_t>& cell(std::vector<Line>& rows, int row,
                                 int col) const {
    const auto c = static_cast<std::size_t>(col);
    return rows[static_cast<std::size_t>(row) * row_lines_ + c / kPerLine]
        .c[c % kPerLine];
  }

  std::size_t row_lines_ = 0;
  // Counters, not structure: mutable so const readers can load them.
  mutable std::vector<Line> sent_;
  mutable std::vector<Line> recvd_;
};

/// Immutable routing view published by the control plane. Everything here
/// is written before publication and never mutated afterwards — except the
/// in-flight counters, which are datapath-OWNED storage shared by every
/// snapshot (the pointer is immutable; the counters it names outlive any
/// one publication).
struct TopologySnapshot {
  /// Route-table entries are Transport* tagged in bit 0 (transports are at
  /// least word-aligned): set = the pair is fenced mid-swap.
  static constexpr std::uintptr_t kFenceBit = 1;

  std::uint64_t epoch = 0;  ///< strictly increasing publication number
  int nranks = 0;
  int ranks_per_node = 1;
  /// Ordered transport list (routing order). Non-owning: the control plane
  /// owns transport lifetime, and transports outlive every snapshot.
  std::vector<transport::Transport*> transports;
  /// First-match routing, compiled by the control plane:
  /// route[src * nranks + dst], tagged per kFenceBit.
  std::vector<std::uintptr_t> route;
  /// Datapath-owned in-flight counters (see PairCounters). Counted at
  /// injection and at sink delivery; the control plane drains a fenced
  /// pair to zero before cutting over.
  PairCounters* pairs = nullptr;

  std::size_t pair_index(int src, int dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(nranks) +
           static_cast<std::size_t>(dst);
  }

  /// The transport carrying (src, dst) traffic — for a fenced pair, the
  /// pending NEW carrier (see header comment).
  transport::Transport* carrier(int src, int dst) const {
    return reinterpret_cast<transport::Transport*>(route[pair_index(src, dst)] &
                                                   ~kFenceBit);
  }

  /// True while the pair is mid-swap: park sends instead of injecting.
  bool fenced(int src, int dst) const {
    return (route[pair_index(src, dst)] & kFenceBit) != 0;
  }

  bool same_node(int a, int b) const {
    return a / ranks_per_node == b / ranks_per_node;
  }

  std::int64_t inflight(int src, int dst) const {
    return pairs->inflight(src, dst);
  }
};

/// The publication point. Holds exactly one current snapshot; predecessors
/// are reclaimed by the control plane after their grace period.
class TopologyHandle {
 public:
  TopologyHandle() = default;
  TopologyHandle(const TopologyHandle&) = delete;
  TopologyHandle& operator=(const TopologyHandle&) = delete;
  ~TopologyHandle() { delete cur_.load(std::memory_order_acquire); }

  /// Datapath side: THE one acquire-load per poll/send.
  const TopologySnapshot* acquire() const {
    return cur_.load(std::memory_order_acquire);
  }

  /// First publication (World construction; no predecessor, no readers).
  void install(const TopologySnapshot* s) {
    cur_.store(s, std::memory_order_release);
  }

  /// Control-plane side: publish `next`, returning the predecessor the
  /// caller must reclaim AFTER its grace period. acq_rel: the release half
  /// orders the successor's construction before any reader's acquire-load;
  /// the acquire half orders the returned predecessor's last use (by us,
  /// during the grace walk) after every prior publication.
  const TopologySnapshot* publish(const TopologySnapshot* next) {
    return cur_.exchange(next, std::memory_order_acq_rel);
  }

 private:
  mc::atomic<const TopologySnapshot*> cur_{nullptr};
};

/// Reader half of the publication protocol: pin the current snapshot with
/// one acquire-load and advertise its epoch (release, so the writer's
/// acquire read of `observed` synchronizes with the end of every earlier
/// section of this reader). Call only inside the reader's critical section
/// (under the VCI lock); the returned pointer is valid until that section
/// ends.
template <class EpochAtomic>
const TopologySnapshot* topology_pin(const TopologyHandle& h,
                                     EpochAtomic& observed) {
  const TopologySnapshot* s = h.acquire();
  observed.store(s->epoch, std::memory_order_release);
  return s;
}

/// Writer half: wait until one reader (one VCI) can no longer touch any
/// snapshot older than `epoch`. Quiescence-counter fast path: an advertised
/// epoch >= `epoch` proves the reader's last pre-publication section ended.
/// Fallback: lock-pass the reader's mutex — entering the section currently
/// in flight serializes us after it, and every later section happens-after
/// our (already performed) publication, so it must pin the successor.
template <class EpochAtomic, class Mutex>
void topology_quiesce(const EpochAtomic& observed, std::uint64_t epoch,
                      Mutex& mu) {
  if (observed.load(std::memory_order_acquire) >= epoch) return;
  mu.lock();
  mu.unlock();
}

}  // namespace mpx::core_detail
