// mpx/shm/shm_transport.hpp
//
// Intra-node transport: the "shmem" subsystem of the collated progress
// function (third hook in Listing 1.1). Models MPICH's shared-memory netmod
// as a true fixed-slot cell datapath:
//
//  - Eager path: per directed (src, dst, vci) channel, a bounded ring of
//    cache-line-aligned inline cells. A small send copies its payload
//    directly into the shared slot (header + payload in-slot, one copy);
//    mid-size payloads (slot < n <= eager max) ride in a size-classed
//    pooled block referenced by the cell. No heap envelope, no Msg
//    ownership transfer, no allocation on the in-slot path. When the ring
//    is full the send parks on a sender-side pending queue that the
//    sender's own progress retries in bulk (exactly why send-side progress
//    matters). A parked eager send is already complete, so its sender may
//    never poll again: the receiver's poll also flushes the cookie-free
//    parked sends bound for it (pull_parked).
//  - Large-message path (LMT): the core protocol sends an `rts` carrying
//    the exporter's buffer address; the receiver copies directly and
//    replies with an `ack`. Those control messages are header-only cells.
//
// Ring protocol. Every cell begins with a lap word (the FastForward /
// bounded-MPMC sequence scheme): cell `idx` reads `idx` while it is free for
// the producer whose private `head` is `idx`, `idx + 1` once that producer
// has published it with one release store, and `idx + cells` after the
// consumer's handler returned and a release store freed it for the next lap.
// Producers (any thread holding some VCI lock of the source rank) serialize
// on a per-channel spinlock that also guards `head`; the consumer
// (serialized externally by the destination VCI's lock — see poll()) keeps
// its own `tail` and drains up to `deliver_batch` ready cells per channel
// per poll. Neither side reads the other's index: the lap word is the only
// word they share, and it sits on the line that carries the message, so an
// in-slot eager message moves one cache line to publish and one to consume.
// Inline cells are handed to the sink as zero-copy views
// (TransportSink::on_msg_inline); a cell is reused only after its handler
// returned.
//
// Because ranks share one address space here, the "shared segment" is a
// per-channel arena allocated lazily on first use; queue discipline,
// capacity limits, and progress behaviour match the mmap'd-segment design.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "mpx/base/buffer.hpp"
#include "mpx/base/lock_rank.hpp"
#include "mpx/base/spinlock.hpp"
#include "mpx/base/thread_safety.hpp"
#include "mpx/mc/sync.hpp"
#include "mpx/transport/msg.hpp"
#include "mpx/transport/transport.hpp"

namespace mpx::shm {

/// Statistics for observability and tests.
struct ShmStats {
  std::uint64_t sends = 0;
  /// Push attempts (fresh sends and parked retries) that observed a full
  /// ring. Parking behind an already-backlogged endpoint — which never
  /// probes the ring — is NOT counted: this counts full-slot stalls.
  std::uint64_t ring_full_events = 0;
  std::uint64_t delivered = 0;
  /// Delivery drains that moved two or more cells from one channel in one
  /// poll (one count per such drain). Each cell still has its own lap-word
  /// acquire and release; the batch amortizes the caller's matcher lock and
  /// the per-channel scan, not a fence pair.
  std::uint64_t batched_deliveries = 0;
  /// Non-empty payloads stored directly in the cell slot (no pooled block).
  std::uint64_t inline_payload_hits = 0;
};

class ShmTransport final : public transport::Transport {
 public:
  /// In-slot payload capacity of a ring cell: payloads up to this size are
  /// copied into the cell, larger eager payloads ride in a pooled block the
  /// cell references.
  static constexpr std::size_t kSlotBytes = 256;
  /// Cells delivered per channel per poll.
  static constexpr int kDeliverBatch = 16;

  /// `nranks` endpoints, `max_vcis` channels each. `cells` per-channel ring
  /// slots (rounded up to a power of two), each holding up to `slot_bytes`
  /// of payload in-slot; poll() delivers at most `deliver_batch` cells per
  /// channel per call. `ranks_per_node` scopes reaches() to same-node rank
  /// pairs (0 = every rank shares one node); `eager_max` is the rendezvous
  /// cutover advertised through limits().
  ShmTransport(int nranks, int max_vcis, std::size_t cells,
               std::size_t slot_bytes = kSlotBytes,
               int deliver_batch = kDeliverBatch,
               int ranks_per_node = 0, std::size_t eager_max = 64 * 1024);
  ~ShmTransport() override;

  ShmTransport(const ShmTransport&) = delete;
  ShmTransport& operator=(const ShmTransport&) = delete;

  // --- transport::Transport ---
  const char* name() const override { return "shm"; }
  unsigned caps() const override {
    return transport::cap_eager_local | transport::cap_mapped_memory;
  }
  const transport::TransportLimits& limits() const override { return limits_; }
  /// ProgressMask::progress_shm (shm/ cannot include core headers).
  unsigned progress_bit() const override { return 1u << 3; }
  bool reaches(int src, int dst) const override {
    return src / ranks_per_node_ == dst / ranks_per_node_;
  }
  transport::TransportStats transport_stats() const override;

  /// Send `m` from m.h.src_rank to m.h.dst_rank on channel m.h.dst_vci.
  ///
  /// Returns true if the message was placed in the ring immediately (its
  /// payload copied in-slot or its owned buffer moved into the cell), so
  /// the operation is locally complete and no on_send_complete fires.
  /// Returns false when the send had to park: `cookie` (if nonzero) will be
  /// reported via on_send_complete once it drains.
  bool send(transport::Msg&& m, std::uint64_t cookie) override;

  /// Zero-envelope eager send: copy `payload` straight from the user (or
  /// staging) buffer into the channel — in-slot when it fits `slot_bytes`,
  /// into a size-classed pooled block otherwise. Never takes ownership of
  /// `payload`; the copy happens before return even when the send parks.
  /// Same return/cookie contract as send().
  bool send_eager(const transport::MsgHeader& h, base::ConstByteSpan payload,
                  std::uint64_t cookie) override;

  /// Poll the (rank, vci) endpoint: retry parked sends originating from
  /// this side in bulk, then drain up to `deliver_batch` arrived cells per
  /// source channel into `sink`. Inline cells are delivered as zero-copy
  /// views (on_msg_inline); pooled-overflow cells as owned Msgs (on_msg).
  /// Sets *made_progress when anything moved.
  ///
  /// Serialization contract: poll() for one (rank, vci) must not run
  /// concurrently with itself (the VCI lock provides this). Re-entrant
  /// calls from inside the sink are detected and skip the delivery stage —
  /// the outer drain still owns its batch's cells.
  void poll(int rank, int vci, transport::TransportSink& sink,
            int* made_progress) override;

  /// True when the endpoint has nothing queued in any direction. Used for
  /// the cheap "empty poll" check the paper relies on (§2.6).
  bool idle(int rank, int vci) const override;

  ShmStats stats() const;

  /// Geometry actually in use (after rounding), for tests and bench labels.
  std::size_t cells() const { return cells_; }
  std::size_t slot_bytes() const { return slot_bytes_; }
  int deliver_batch() const { return deliver_batch_; }

 private:
  /// One ring slot's hot header: the lap word and every MsgHeader field an
  /// eager cell needs, packed so that it and the first bytes of the inline
  /// payload share the cell's first cache line. Placement-constructed in the
  /// channel arena; the inline payload area is the `slot_bytes_` bytes
  /// immediately after the struct. `dst_rank` and `dst_vci` are not stored:
  /// the consumer rebuilds them from the channel it polls.
  struct Cell {
    explicit Cell(std::uint32_t idx) : lap(idx) {}
    /// idx: free for the producer at head == idx; idx + 1: published;
    /// idx + cells: consumed, free for the next lap.
    mc::atomic<std::uint32_t> lap;
    std::uint32_t inline_bytes = 0;
    transport::MsgKind kind = transport::MsgKind::eager;
    /// The cell's Cold record carries fields or an overflow buffer.
    bool cold = false;
    std::int32_t src_rank = -1;
    std::int32_t src_vci = 0;
    std::int32_t context_id = 0;
    std::int32_t tag = 0;
    std::uint64_t total_bytes = 0;

    std::byte* inline_data() { return reinterpret_cast<std::byte*>(this + 1); }
  };

  /// The rest of a cell, in a parallel array after the cells: written by
  /// the producer and read by the consumer only when `Cell::cold` is set
  /// (one of these fields is nonzero, as in control and data cells, or the
  /// payload overflowed), so an in-slot eager message never touches it.
  struct alignas(64) Cold {
    std::uint64_t chunk_offset = 0;
    std::uint64_t sender_cookie = 0;
    std::uint64_t recver_cookie = 0;
    const void* shm_src = nullptr;
    base::Buffer overflow;  ///< engaged when the payload outgrew the slot
  };

  /// Every field sits on the line of its one writer.
  struct Channel {
    // Producer line. Any thread holding one of the source rank's VCI locks
    // may push, so producers serialize on this spinlock. The consumer never
    // takes it — it synchronizes through the cells' lap words.
    // Rank transport_channel: poll() nests a channel lock inside the
    // pending lock (rank transport) when flushing parked sends.
    mutable base::Spinlock mu{"shm:channel", base::LockRank::transport_channel};
    /// Next slot to write; producer-private.
    std::uint32_t head MPX_GUARDED_BY(mu) = 0;

    // Read-mostly line: written once at first use and on the rare park and
    // flush, read by both sides on every push and poll.
    /// Cell arena (cells, then their Cold records), allocated lazily by the
    /// first producer under mu and published with release; the consumer's
    /// acquire load skips a channel that has none yet.
    alignas(64) mc::atomic<std::byte*> arena{nullptr};
    /// Sends bound for this channel parked on their source endpoint's
    /// pending queue (raised at park, lowered at flush). The consumer reads
    /// it on every poll with `arena`: a nonzero value makes it flush those
    /// queues itself, so parked sends drain even when their sender never
    /// polls again.
    // A hint: the flush runs under the endpoint lock, and a stale read only
    // delays it to a later poll. mpxlint: allow(mc-coverage)
    std::atomic<std::uint32_t> waiting{0};

    // Consumer line.
    /// Next slot to read; written only by the (externally serialized)
    /// consumer. Atomic and relaxed only because idle() reads it from
    /// other threads; slot reuse is ordered by the lap words, not by tail.
    alignas(64) mc::atomic<std::uint32_t> tail{0};
  };

  /// Endpoint state for (rank, vci): the sender-side pending queue and
  /// the endpoint's share of the stats. Cache-line aligned so threads on
  /// different endpoints never write a common line; stats() sums them.
  struct alignas(64) Endpoint {
    mutable base::Spinlock mu{"shm:pending", base::LockRank::transport};
    std::deque<std::pair<transport::Msg, std::uint64_t>> q MPX_GUARDED_BY(mu);
    /// Mirrors q.size(); maintained under mu, read lock-free by poll() as
    /// the fast-path "nothing parked" check (§2.6 empty-poll cost).
    // Lock-free mirror of q.size(); the modeled protocol state is q itself
    // (under mu) — a stale read only costs a lock. mpxlint: allow(mc-coverage)
    std::atomic<std::uint32_t> count{0};
    /// Consumer-side re-entrancy guard (see poll()). Only ever touched by
    /// the externally-serialized consumer of this endpoint, hence plain.
    bool delivering = false;  // mpxlint: allow(tsa-ratchet) consumer-serialized

    // Stats counters stay raw std::atomic on purpose: diagnostics, not
    // protocol — modeling them would only blow up the mc schedule space.
    // Sender side (sends from this endpoint):
    std::atomic<std::uint64_t> sends{0};        // mpxlint: allow(mc-coverage) stats only
    std::atomic<std::uint64_t> ring_full{0};    // mpxlint: allow(mc-coverage) stats only
    std::atomic<std::uint64_t> inline_hits{0};  // mpxlint: allow(mc-coverage) stats only
    // Consumer side (deliveries to this endpoint):
    std::atomic<std::uint64_t> delivered{0};    // mpxlint: allow(mc-coverage) stats only
    std::atomic<std::uint64_t> batched{0};      // mpxlint: allow(mc-coverage) stats only
  };

  Channel& channel(int src, int dst, int vci);
  const Channel& channel(int src, int dst, int vci) const;
  Endpoint& endpoint(int rank, int vci);
  const Endpoint& endpoint(int rank, int vci) const;

  Cell& cell_at(std::byte* arena, std::uint32_t idx) const;
  Cold& cold_at(std::byte* arena, std::uint32_t idx) const;
  std::byte* init_arena(Channel& ch) MPX_REQUIRES(ch.mu);

  /// Hand the ready cell `idx` of a channel bound for (rank, vci) to `sink`;
  /// the header's dst_rank and dst_vci are rebuilt from (rank, vci).
  void deliver(std::byte* arena, std::uint32_t idx, int rank, int vci,
               transport::TransportSink& sink);

  /// Producer push under ch.mu, counted on the source endpoint `src`.
  /// `payload` is copied in-slot; a non-empty `overflow` buffer is moved
  /// into the cell instead (exactly one of the two is meaningful). Returns
  /// false (leaving `overflow` intact) when the ring is full.
  bool push_cell(Channel& ch, Endpoint& src, const transport::MsgHeader& h,
                 base::ConstByteSpan payload, base::Buffer& overflow)
      MPX_REQUIRES(ch.mu);

  /// Place a parked/owned Msg; routes payload in-slot when it fits.
  bool push_msg(Channel& ch, Endpoint& src, transport::Msg& m)
      MPX_REQUIRES(ch.mu);

  /// Park a send on its endpoint's pending queue, preserving FIFO order.
  void park(Endpoint& ep, transport::Msg&& m, std::uint64_t cookie);

  /// Push parked sends of `ep` from the head of its queue while rings have
  /// room. Completed cookies are appended to `done`; with `done` null
  /// (a flush on behalf of a receiver, which cannot report them) the flush
  /// stops at the first entry that carries a cookie. Returns true when
  /// anything moved.
  bool flush_parked(Endpoint& ep, std::vector<std::uint64_t>* done)
      MPX_REQUIRES(ep.mu);

  /// Receiver side: flush the parked, cookie-free sends of every endpoint
  /// of rank `src` (they may be bound for any channel; FIFO is the
  /// endpoint queue's). Returns true when anything moved.
  bool pull_parked(int src);

  int nranks_;
  int max_vcis_;
  std::size_t cells_;       ///< ring capacity, power of two
  std::size_t slot_bytes_;  ///< inline payload capacity per cell
  std::size_t stride_;      ///< bytes per cell incl. inline area, 64-aligned
  int deliver_batch_;
  int ranks_per_node_;      ///< reaches() node width (>= 1 after ctor)
  transport::TransportLimits limits_;
  std::vector<Channel> channels_;   // [src][dst][vci]
  std::vector<Endpoint> endpoints_;  // [rank][vci]
};

}  // namespace mpx::shm
