#include "mpx/shm/shm_transport.hpp"

#include <cstddef>
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
/// Inline payload bytes that share a cell's first line with its header.
constexpr std::size_t kFirstLinePayload = 24;

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) & ~(align - 1);
}

constexpr std::size_t line_of(std::size_t offset) {
  return offset / kCellAlign;
}

/// Order of the producer's lap-word publish: `mo`, unless weakened.
std::memory_order publish_order(std::memory_order mo) {
#if MPX_MODEL_CHECK
  // Seeded-mutation self-test hook: mc::mut::weak_shm_publish publishes a
  // cell relaxed, so the consumer's read-out is no longer ordered after the
  // producer's writes. The mc suite must catch the data race on the cell.
  if (mc::mut::weak_shm_publish) return std::memory_order_relaxed;
#endif
  return mo;
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
  // Line ownership. Cells start on 64-byte boundaries (64-aligned arena,
  // 64-aligned stride), so the lap word, the hot header and the first
  // payload bytes travel as one line.
  static_assert(offsetof(Cell, lap) == 0, "the lap word leads the cell");
  static_assert(sizeof(Cell) + kFirstLinePayload <= kCellAlign,
                "hot header + first payload bytes fit the cell's first line");
  static_assert(alignof(Cell) <= kCellAlign && alignof(Cold) == kCellAlign);
  // A channel's producer-only, read-mostly and consumer-only fields sit on
  // three distinct lines, each field on the line of its kind.
  static_assert(alignof(Channel) == kCellAlign);
  static_assert(line_of(offsetof(Channel, head)) == line_of(0),
                "head shares the producer spinlock's line");
  static_assert(line_of(offsetof(Channel, arena)) ==
                    line_of(offsetof(Channel, waiting)),
                "arena and waiting share the read-mostly line");
  static_assert(line_of(offsetof(Channel, arena)) !=
                        line_of(offsetof(Channel, head)) &&
                    line_of(offsetof(Channel, arena)) !=
                        line_of(offsetof(Channel, tail)) &&
                    line_of(offsetof(Channel, head)) !=
                        line_of(offsetof(Channel, tail)),
                "producer, read-mostly and consumer lines are distinct");
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
    std::byte* arena = ch.arena.load(std::memory_order_acquire);
    if (arena == nullptr) continue;
    for (std::size_t i = 0; i < cells_; ++i) {
      cell_at(arena, static_cast<std::uint32_t>(i)).~Cell();
      cold_at(arena, static_cast<std::uint32_t>(i)).~Cold();
    }
    ::operator delete(arena, std::align_val_t{kCellAlign});
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

ShmTransport::Cell& ShmTransport::cell_at(std::byte* arena,
                                          std::uint32_t idx) const {
  return *reinterpret_cast<Cell*>(
      arena + static_cast<std::size_t>(idx & (cells_ - 1)) * stride_);
}

ShmTransport::Cold& ShmTransport::cold_at(std::byte* arena,
                                          std::uint32_t idx) const {
  return reinterpret_cast<Cold*>(arena + cells_ * stride_)[idx & (cells_ - 1)];
}

std::byte* ShmTransport::init_arena(Channel& ch) {
  std::byte* arena = static_cast<std::byte*>(::operator new(
      cells_ * (stride_ + sizeof(Cold)), std::align_val_t{kCellAlign}));
  for (std::size_t i = 0; i < cells_; ++i) {
    const auto idx = static_cast<std::uint32_t>(i);
    ::new (static_cast<void*>(&cell_at(arena, idx))) Cell(idx);
    ::new (static_cast<void*>(&cold_at(arena, idx))) Cold();
  }
  ch.arena.store(arena, std::memory_order_release);
  return arena;
}

bool ShmTransport::push_cell(Channel& ch, Endpoint& src, const MsgHeader& h,
                             base::ConstByteSpan payload,
                             base::Buffer& overflow) {
  // ch.mu already orders this load after the first producer's store;
  // acquire (free on x86) states that for the model checker, whose loads
  // may read values older than a store ordered by a lock. Producers of one
  // channel include its consumer's thread when it flushes parked sends
  // (pull_parked).
  std::byte* arena = ch.arena.load(std::memory_order_acquire);
  if (arena == nullptr) arena = init_arena(ch);
  const std::uint32_t hd = ch.head;
  Cell& c = cell_at(arena, hd);
  // Reading `hd` means the consumer freed the cell's previous lap; that
  // release store orders its read-out before the writes below.
  if (c.lap.load(std::memory_order_acquire) != hd) {
    src.ring_full.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  MPX_MC_PLAIN_WRITE(&c, "shm cell");
  c.kind = h.kind;
  c.src_rank = h.src_rank;
  c.src_vci = h.src_vci;
  c.context_id = h.context_id;
  c.tag = h.tag;
  c.total_bytes = h.total_bytes;
  const bool ovf = overflow.size() != 0;
  c.cold = ovf || h.chunk_offset != 0 || h.sender_cookie != 0 ||
           h.recver_cookie != 0 || h.shm_src != nullptr;
  if (c.cold) {
    Cold& k = cold_at(arena, hd);
    MPX_MC_PLAIN_WRITE(&k, "shm cold record");
    k.chunk_offset = h.chunk_offset;
    k.sender_cookie = h.sender_cookie;
    k.recver_cookie = h.recver_cookie;
    k.shm_src = h.shm_src;
    if (ovf) k.overflow = std::move(overflow);
  }
  if (ovf) {
    c.inline_bytes = 0;
  } else {
    if (!payload.empty()) {
      std::memcpy(c.inline_data(), payload.data(), payload.size());
      src.inline_hits.fetch_add(1, std::memory_order_relaxed);
    }
    c.inline_bytes = static_cast<std::uint32_t>(payload.size());
  }
  c.lap.store(hd + 1, publish_order(std::memory_order_release));
  ch.head = hd + 1;
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
  // source channel, so the caller's matcher lock is amortized over the
  // batch. Each cell is claimed by an acquire load of its lap word and
  // freed for the next lap by a release store once its handler returned;
  // the consumer-private tail advances once per batch.
  //
  // Re-entrancy guard: a sink handler may re-enter progress (completion
  // callbacks), which would re-read the not-yet-advanced tail and find a
  // cell the outer drain is still handling. The inner call skips delivery;
  // the outer drain finishes its batch. `delivering` is plain data because
  // the consumer side of an endpoint is serialized by contract (the VCI
  // lock).
  //
  // A channel with parked sends bound for it gets them flushed from here
  // first (the batch below then delivers what fit): an eager send
  // completes when it parks, so its sender may never poll again (it may
  // be done, or blocked on something this receiver has yet to send).
  if (ep.delivering) return;
  ep.delivering = true;
  std::uint64_t ndelivered = 0;
  bool pulled = false;
  const auto batch = static_cast<std::uint32_t>(deliver_batch_);
  for (int src = 0; src < nranks_; ++src) {
    Channel& ch = channel(src, rank, vci);
    if (ch.waiting.load(std::memory_order_relaxed) != 0) {
      pulled = pull_parked(src) || pulled;
    }
    std::byte* arena = ch.arena.load(std::memory_order_acquire);
    if (arena == nullptr) continue;
    const std::uint32_t t = ch.tail.load(std::memory_order_relaxed);
    std::uint32_t n = 0;
    for (; n < batch; ++n) {
      const std::uint32_t idx = t + n;
      Cell& c = cell_at(arena, idx);
      if (c.lap.load(std::memory_order_acquire) != idx + 1) break;
      MPX_MC_PLAIN_WRITE(&c, "shm cell");
      deliver(arena, idx, rank, vci, sink);
      c.lap.store(idx + static_cast<std::uint32_t>(cells_),
                  std::memory_order_release);
    }
    if (n == 0) continue;
    ch.tail.store(t + n, std::memory_order_relaxed);
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

void ShmTransport::deliver(std::byte* arena, std::uint32_t idx, int rank,
                           int vci, transport::TransportSink& sink) {
  Cell& c = cell_at(arena, idx);
  MsgHeader h;
  h.kind = c.kind;
  h.src_rank = c.src_rank;
  h.dst_rank = rank;
  h.src_vci = c.src_vci;
  h.dst_vci = vci;
  h.context_id = c.context_id;
  h.tag = c.tag;
  h.total_bytes = c.total_bytes;
  if (c.cold) {
    Cold& k = cold_at(arena, idx);
    MPX_MC_PLAIN_WRITE(&k, "shm cold record");
    h.chunk_offset = k.chunk_offset;
    h.sender_cookie = k.sender_cookie;
    h.recver_cookie = k.recver_cookie;
    h.shm_src = k.shm_src;
    if (k.overflow.size() != 0) {
      Msg m;
      m.h = h;
      m.payload = std::move(k.overflow);
      sink.on_msg(std::move(m));
      return;
    }
  }
  sink.on_msg_inline(h, base::ConstByteSpan(c.inline_data(), c.inline_bytes));
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
    if (ch.waiting.load(std::memory_order_relaxed) != 0) return false;
    std::byte* arena = ch.arena.load(std::memory_order_acquire);
    if (arena == nullptr) continue;
    // Empty while the cell at tail still waits for its producer. A stale
    // tail (read from another thread) finds its cell a lap ahead and reads
    // busy, which costs one poll, never a missed message.
    const std::uint32_t t = ch.tail.load(std::memory_order_relaxed);
    if (cell_at(arena, t).lap.load(std::memory_order_acquire) != t) {
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
