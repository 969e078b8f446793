#include "mpx/net/nic.hpp"

#include "mpx/base/status.hpp"

namespace mpx::net {

using transport::Msg;

Nic::Nic(int nranks, int max_vcis, CostModel model, const base::Clock& clock,
         transport::TransportLimits limits)
    : nranks_(nranks),
      max_vcis_(max_vcis),
      model_(model),
      limits_(limits),
      clock_(clock),
      channels_(static_cast<std::size_t>(nranks) * nranks * max_vcis),
      endpoints_(static_cast<std::size_t>(nranks) * max_vcis) {
  expects(nranks >= 1 && max_vcis >= 1, "Nic: bad dimensions");
}

Nic::Channel& Nic::channel(int src, int dst, int vci) {
  return channels_[(static_cast<std::size_t>(src) * nranks_ + dst) *
                       max_vcis_ +
                   vci];
}
const Nic::Channel& Nic::channel(int src, int dst, int vci) const {
  return channels_[(static_cast<std::size_t>(src) * nranks_ + dst) *
                       max_vcis_ +
                   vci];
}
Nic::Endpoint& Nic::endpoint(int rank, int vci) {
  return endpoints_[static_cast<std::size_t>(rank) * max_vcis_ + vci];
}
const Nic::Endpoint& Nic::endpoint(int rank, int vci) const {
  return endpoints_[static_cast<std::size_t>(rank) * max_vcis_ + vci];
}

void Nic::inject(Msg&& m, std::uint64_t cookie) {
  expects(m.h.src_rank >= 0 && m.h.src_rank < nranks_ && m.h.dst_rank >= 0 &&
              m.h.dst_rank < nranks_,
          "Nic::inject: rank out of range");
  expects(m.h.dst_vci >= 0 && m.h.dst_vci < max_vcis_ && m.h.src_vci >= 0 &&
              m.h.src_vci < max_vcis_,
          "Nic::inject: vci out of range");
  Endpoint& src = endpoint(m.h.src_rank, m.h.src_vci);
  src.injected.fetch_add(1, std::memory_order_relaxed);
  const double now = clock_.now();
  const std::size_t bytes = m.payload.size();

  // Pending counts rise before the matching push (mirror of the engine's
  // hook_count): a poller reading zero is then guaranteed the queues held
  // nothing it could miss, while a nonzero read at worst costs one
  // unproductive locked scan.
  Channel& ch = channel(m.h.src_rank, m.h.dst_rank, m.h.dst_vci);
  endpoint(m.h.dst_rank, m.h.dst_vci)
      .pending.fetch_add(1, std::memory_order_release);
  {
    base::LockGuard<base::Spinlock> g(ch.mu);
    const double due = model_.deliver_time(now, ch.clear_time, bytes);
    ch.clear_time = due;
    ch.in_flight.push_back(TimedMsg{due, std::move(m)});
  }

  if (cookie != 0) {
    src.pending.fetch_add(1, std::memory_order_release);
    base::LockGuard<base::Spinlock> g(src.mu);
    src.cq.push_back(CqEntry{model_.inject_done_time(now, bytes), cookie});
  }
}

void Nic::poll(int rank, int vci, transport::TransportSink& sink,
               int* made_progress) {
  // Quiet-endpoint fast path: nothing in flight to or from (rank, vci)
  // means no lock or clock read is worth paying. A racing inject() is
  // caught by a later poll (delivery may lag injection, as everywhere).
  Endpoint& ep = endpoint(rank, vci);
  if (ep.pending.load(std::memory_order_acquire) == 0) return;
  const double now = clock_.now();

  // 1) Fire due sender-side completions (injection DMA done).
  for (;;) {
    std::uint64_t cookie = 0;
    {
      base::LockGuard<base::Spinlock> g(ep.mu);
      if (ep.cq.empty() || ep.cq.front().due > now) break;
      cookie = ep.cq.front().cookie;
      ep.cq.pop_front();
    }
    ep.pending.fetch_sub(1, std::memory_order_relaxed);
    ep.cq_events.fetch_add(1, std::memory_order_relaxed);
    if (made_progress != nullptr) *made_progress = 1;
    sink.on_send_complete(cookie);
  }

  // 2) Deliver due arrivals from every source channel.
  for (int src = 0; src < nranks_; ++src) {
    Channel& ch = channel(src, rank, vci);
    for (;;) {
      Msg m;
      {
        base::LockGuard<base::Spinlock> g(ch.mu);
        if (ch.in_flight.empty() || ch.in_flight.front().due > now) break;
        m = std::move(ch.in_flight.front().msg);
        ch.in_flight.pop_front();
      }
      ep.pending.fetch_sub(1, std::memory_order_relaxed);
      ep.delivered.fetch_add(1, std::memory_order_relaxed);
      if (made_progress != nullptr) *made_progress = 1;
      sink.on_msg(std::move(m));
    }
  }
}

bool Nic::idle(int rank, int vci) const {
  {
    const Endpoint& ep = endpoint(rank, vci);
    base::LockGuard<base::Spinlock> g(ep.mu);
    if (!ep.cq.empty()) return false;
  }
  for (int src = 0; src < nranks_; ++src) {
    const Channel& ch = channel(src, rank, vci);
    base::LockGuard<base::Spinlock> g(ch.mu);
    if (!ch.in_flight.empty()) return false;
  }
  return true;
}

NicStats Nic::stats() const {
  NicStats s;
  for (const Endpoint& ep : endpoints_) {
    s.injected += ep.injected.load(std::memory_order_relaxed);
    s.delivered += ep.delivered.load(std::memory_order_relaxed);
    s.cq_events += ep.cq_events.load(std::memory_order_relaxed);
  }
  return s;
}

transport::TransportStats Nic::transport_stats() const {
  const NicStats st = stats();
  transport::TransportStats s;
  s.sends = st.injected;
  s.delivered = st.delivered;
  s.backlogged = 0;  // the simulated NIC never back-pressures injection
  s.completions = st.cq_events;
  return s;
}

}  // namespace mpx::net
