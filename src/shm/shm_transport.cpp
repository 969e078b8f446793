#include "mpx/shm/shm_transport.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "mpx/base/pool.hpp"
#include "mpx/base/status.hpp"
#include "mpx/mc/mc.hpp"

namespace mpx::shm {

using transport::Msg;
using transport::MsgHeader;

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

constexpr std::size_t kCellAlign = 64;

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) & ~(align - 1);
}

}  // namespace

ShmTransport::ShmTransport(int nranks, int max_vcis, std::size_t cells,
                           std::size_t slot_bytes, int deliver_batch,
                           int ranks_per_node, std::size_t eager_max)
    : nranks_(nranks),
      max_vcis_(max_vcis),
      cells_(round_up_pow2(cells)),
      slot_bytes_(0),
      stride_(round_up(sizeof(Cell) + slot_bytes, kCellAlign)),
      deliver_batch_(deliver_batch < 1 ? 1 : deliver_batch),
      ranks_per_node_(ranks_per_node < 1 ? nranks : ranks_per_node),
      channels_(static_cast<std::size_t>(nranks) * nranks * max_vcis),
      endpoints_(static_cast<std::size_t>(nranks) * max_vcis) {
  expects(nranks >= 1 && max_vcis >= 1 && cells >= 1,
          "ShmTransport: bad dimensions");
  expects(cells_ <= (std::size_t{1} << 31),
          "ShmTransport: ring capacity too large for 32-bit indices");
  // The stride rounding leaves free bytes after the cell header; give them
  // to the inline area so the whole cache line is usable payload space.
  slot_bytes_ = stride_ - sizeof(Cell);
  limits_.eager_max = eager_max;
  limits_.lightweight_max = eager_max;  // every shm eager is locally complete
}

ShmTransport::~ShmTransport() {
  for (Channel& ch : channels_) {
    if (ch.arena == nullptr) continue;
    for (std::size_t i = 0; i < cells_; ++i) {
      cell_at(ch, static_cast<std::uint32_t>(i)).~Cell();
    }
    ::operator delete(ch.arena, std::align_val_t{kCellAlign});
  }
}

ShmTransport::Channel& ShmTransport::channel(int src, int dst, int vci) {
  return channels_[(static_cast<std::size_t>(src) * nranks_ + dst) *
                       max_vcis_ +
                   vci];
}
const ShmTransport::Channel& ShmTransport::channel(int src, int dst,
                                                   int vci) const {
  return channels_[(static_cast<std::size_t>(src) * nranks_ + dst) *
                       max_vcis_ +
                   vci];
}
ShmTransport::Endpoint& ShmTransport::endpoint(int rank, int vci) {
  return endpoints_[static_cast<std::size_t>(rank) * max_vcis_ + vci];
}
const ShmTransport::Endpoint& ShmTransport::endpoint(int rank,
                                                     int vci) const {
  return endpoints_[static_cast<std::size_t>(rank) * max_vcis_ + vci];
}

ShmTransport::Cell& ShmTransport::cell_at(Channel& ch, std::uint32_t idx) {
  return *reinterpret_cast<Cell*>(
      ch.arena + static_cast<std::size_t>(idx & (cells_ - 1)) * stride_);
}

void ShmTransport::init_arena(Channel& ch) {
  std::byte* arena = static_cast<std::byte*>(
      ::operator new(cells_ * stride_, std::align_val_t{kCellAlign}));
  for (std::size_t i = 0; i < cells_; ++i) {
    ::new (static_cast<void*>(arena + i * stride_)) Cell();
  }
  // Ordered for the consumer by the first head release-store; ordered for
  // other producers by ch.mu. The PLAIN annotation lets the model checker
  // prove that claim across every explored interleaving.
  MPX_MC_PLAIN_WRITE(&ch.arena, "shm channel arena");
  ch.arena = arena;
}

bool ShmTransport::push_cell(Channel& ch, Endpoint& src, const MsgHeader& h,
                             base::ConstByteSpan payload,
                             base::Buffer& overflow) {
  if (ch.arena == nullptr) init_arena(ch);
  // ch.mu already orders this load after the previous producer's store;
  // acquire (free on x86) states that for the model checker, whose relaxed
  // loads may read values older than a store ordered by a lock. Producers
  // of one channel include its consumer's thread when it flushes parked
  // sends (pull_parked).
  const std::uint32_t hd = ch.head.load(std::memory_order_acquire);
  const std::uint32_t tl = ch.tail.load(std::memory_order_acquire);
  if (static_cast<std::size_t>(hd - tl) == cells_) {
    src.ring_full.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Cell& c = cell_at(ch, hd);
  MPX_MC_PLAIN_WRITE(&c, "shm cell");
  c.h = h;
  if (overflow.size() != 0) {
    c.overflow = std::move(overflow);
    c.inline_bytes = 0;
  } else {
    if (!payload.empty()) {
      std::memcpy(c.inline_data(), payload.data(), payload.size());
      src.inline_hits.fetch_add(1, std::memory_order_relaxed);
    }
    c.inline_bytes = static_cast<std::uint32_t>(payload.size());
  }
  ch.head.store(hd + 1, std::memory_order_release);
  return true;
}

bool ShmTransport::push_msg(Channel& ch, Endpoint& src, Msg& m) {
  if (m.payload.size() <= slot_bytes_) {
    base::Buffer none;
    return push_cell(ch, src, m.h, m.payload.span(), none);
  }
  // Oversize payload: the owned (typically pooled) buffer rides in the cell.
  base::Buffer ovf = std::move(m.payload);
  if (push_cell(ch, src, m.h, base::ConstByteSpan{}, ovf)) return true;
  m.payload = std::move(ovf);  // ring full: give the payload back
  return false;
}

void ShmTransport::park(Endpoint& ep, Msg&& m, std::uint64_t cookie) {
  Channel& ch = channel(m.h.src_rank, m.h.dst_rank, m.h.dst_vci);
  base::LockGuard<base::Spinlock> g(ep.mu);
  ep.q.emplace_back(std::move(m), cookie);
  ep.count.store(static_cast<std::uint32_t>(ep.q.size()),
                 std::memory_order_release);
  ch.waiting.fetch_add(1, std::memory_order_relaxed);
}

bool ShmTransport::flush_parked(Endpoint& ep,
                                std::vector<std::uint64_t>* done) {
  bool flushed = false;
  while (!ep.q.empty()) {
    auto& [msg, cookie] = ep.q.front();
    if (cookie != 0 && done == nullptr) break;
    Channel& ch = channel(msg.h.src_rank, msg.h.dst_rank, msg.h.dst_vci);
    bool pushed;
    {
      base::LockGuard<base::Spinlock> cg(ch.mu);
      pushed = push_msg(ch, ep, msg);
    }
    if (!pushed) break;  // still full; keep FIFO, retry next poll
    ch.waiting.fetch_sub(1, std::memory_order_relaxed);
    flushed = true;
    if (cookie != 0) done->push_back(cookie);
    ep.q.pop_front();
  }
  ep.count.store(static_cast<std::uint32_t>(ep.q.size()),
                 std::memory_order_release);
  return flushed;
}

bool ShmTransport::send(Msg&& m, std::uint64_t cookie) {
  expects(m.h.src_rank >= 0 && m.h.src_rank < nranks_ && m.h.dst_rank >= 0 &&
              m.h.dst_rank < nranks_,
          "ShmTransport::send: rank out of range");
  expects(m.h.dst_vci >= 0 && m.h.dst_vci < max_vcis_,
          "ShmTransport::send: vci out of range");
  Endpoint& ep = endpoint(m.h.src_rank, m.h.src_vci);
  ep.sends.fetch_add(1, std::memory_order_relaxed);

  // Preserve channel FIFO order: if anything is already parked for this
  // source endpoint, new sends must queue behind it (no ring probe — this
  // is an envelope park, not a full-slot stall).
  if (ep.count.load(std::memory_order_acquire) != 0) {
    park(ep, std::move(m), cookie);
    return false;
  }

  Channel& ch = channel(m.h.src_rank, m.h.dst_rank, m.h.dst_vci);
  {
    base::LockGuard<base::Spinlock> g(ch.mu);
    if (push_msg(ch, ep, m)) return true;
  }
  park(ep, std::move(m), cookie);
  return false;
}

bool ShmTransport::send_eager(const MsgHeader& h, base::ConstByteSpan payload,
                              std::uint64_t cookie) {
  expects(h.src_rank >= 0 && h.src_rank < nranks_ && h.dst_rank >= 0 &&
              h.dst_rank < nranks_,
          "ShmTransport::send_eager: rank out of range");
  expects(h.dst_vci >= 0 && h.dst_vci < max_vcis_,
          "ShmTransport::send_eager: vci out of range");
  Endpoint& ep = endpoint(h.src_rank, h.src_vci);
  ep.sends.fetch_add(1, std::memory_order_relaxed);

  // Mid-size payloads go into a size-classed pooled block. Copy before any
  // lock: the block transfers to the receiver as-is, so this is still the
  // single sender-side copy.
  base::Buffer ovf;
  base::ConstByteSpan inline_src = payload;
  if (payload.size() > slot_bytes_) {
    ovf = base::pooled_copy(payload);
    inline_src = base::ConstByteSpan{};
  }

  if (ep.count.load(std::memory_order_acquire) == 0) {
    Channel& ch = channel(h.src_rank, h.dst_rank, h.dst_vci);
    base::LockGuard<base::Spinlock> g(ch.mu);
    if (push_cell(ch, ep, h, inline_src, ovf)) return true;
  }

  // Backlogged or full: park an owned copy (the one allocation on this
  // path, and only under ring pressure).
  Msg m;
  m.h = h;
  m.payload = ovf.size() != 0 ? std::move(ovf) : base::pooled_copy(payload);
  park(ep, std::move(m), cookie);
  return false;
}

void ShmTransport::poll(int rank, int vci, transport::TransportSink& sink,
                        int* made_progress) {
  // 1) Retry parked sends from this endpoint in bulk (send-side progress):
  // one pending-lock acquisition flushes as many envelopes as fit, and the
  // drained cookies are reported after the lock drops.
  Endpoint& ep = endpoint(rank, vci);
  // Lock-free fast path: `count` mirrors q.size() and is only ever raised
  // under the lock, so a zero read genuinely means nothing parked (a stale
  // nonzero just costs one lock acquisition).
  if (ep.count.load(std::memory_order_acquire) != 0) {
    std::vector<std::uint64_t> done;
    bool flushed = false;
    {
      base::LockGuard<base::Spinlock> g(ep.mu);
      flushed = flush_parked(ep, &done);
    }
    if (flushed && made_progress != nullptr) *made_progress = 1;
    for (const std::uint64_t c : done) sink.on_send_complete(c);
  }

  // 2) Deliver arrived cells destined to (rank, vci), at most one batch per
  // source channel: a single acquire load claims the batch and a single
  // release store of tail retires it, so the fence cost and the caller's
  // matcher lock are amortized over the whole batch.
  //
  // Re-entrancy guard: a sink handler may re-enter progress (completion
  // callbacks), which would re-read the not-yet-published tail and deliver
  // the outer batch's cells twice. The inner call skips delivery; the
  // outer drain finishes its batch. `delivering` is plain data because the
  // consumer side of an endpoint is serialized by contract (the VCI lock).
  //
  // A channel with parked sends bound for it gets them flushed from here
  // first (the batch below then delivers what fit): an eager send
  // completes when it parks, so its sender may never poll again (it may
  // be done, or blocked on something this receiver has yet to send).
  if (ep.delivering) return;
  ep.delivering = true;
  std::uint64_t ndelivered = 0;
  bool pulled = false;
  for (int src = 0; src < nranks_; ++src) {
    Channel& ch = channel(src, rank, vci);
    if (ch.waiting.load(std::memory_order_relaxed) != 0) {
      pulled = pull_parked(src) || pulled;
    }
    const std::uint32_t t = ch.tail.load(std::memory_order_relaxed);
    const std::uint32_t h = ch.head.load(std::memory_order_acquire);
    if (h == t) continue;
    const std::uint32_t n =
        std::min<std::uint32_t>(h - t, static_cast<std::uint32_t>(deliver_batch_));
    MPX_MC_PLAIN_READ(&ch.arena, "shm channel arena");
    for (std::uint32_t i = 0; i < n; ++i) {
      Cell& c = cell_at(ch, t + i);
      MPX_MC_PLAIN_WRITE(&c, "shm cell");
      if (c.overflow.size() != 0) {
        Msg m;
        m.h = c.h;
        m.payload = std::move(c.overflow);
        sink.on_msg(std::move(m));
      } else {
        sink.on_msg_inline(
            c.h, base::ConstByteSpan(c.inline_data(), c.inline_bytes));
      }
    }
    ch.tail.store(t + n, std::memory_order_release);
    ndelivered += n;
    if (n >= 2) ep.batched.fetch_add(1, std::memory_order_relaxed);
  }
  ep.delivering = false;
  if (ndelivered != 0) {
    ep.delivered.fetch_add(ndelivered, std::memory_order_relaxed);
  }
  if ((ndelivered != 0 || pulled) && made_progress != nullptr) {
    *made_progress = 1;
  }
}

bool ShmTransport::pull_parked(int src) {
  bool moved = false;
  for (int v = 0; v < max_vcis_; ++v) {
    Endpoint& sep = endpoint(src, v);
    if (sep.count.load(std::memory_order_acquire) == 0) continue;
    base::LockGuard<base::Spinlock> g(sep.mu);
    moved = flush_parked(sep, nullptr) || moved;
  }
  return moved;
}

bool ShmTransport::idle(int rank, int vci) const {
  const Endpoint& ep = endpoint(rank, vci);
  if (ep.count.load(std::memory_order_acquire) != 0) return false;
  for (int src = 0; src < nranks_; ++src) {
    const Channel& ch = channel(src, rank, vci);
    if (ch.waiting.load(std::memory_order_relaxed) != 0 ||
        ch.head.load(std::memory_order_acquire) !=
            ch.tail.load(std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

ShmStats ShmTransport::stats() const {
  ShmStats s;
  for (const Endpoint& ep : endpoints_) {
    s.sends += ep.sends.load(std::memory_order_relaxed);
    s.ring_full_events += ep.ring_full.load(std::memory_order_relaxed);
    s.delivered += ep.delivered.load(std::memory_order_relaxed);
    s.batched_deliveries += ep.batched.load(std::memory_order_relaxed);
    s.inline_payload_hits += ep.inline_hits.load(std::memory_order_relaxed);
  }
  return s;
}

transport::TransportStats ShmTransport::transport_stats() const {
  const ShmStats st = stats();
  transport::TransportStats s;
  s.sends = st.sends;
  s.delivered = st.delivered;
  s.backlogged = st.ring_full_events;
  // Shm eager sends are locally complete; deferred-cookie completions (full
  // ring parks) are rare and folded into `backlogged`.
  s.completions = 0;
  return s;
}

}  // namespace mpx::shm
