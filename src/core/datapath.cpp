// World's datapath: the read side of the layer split — lock-free VCI
// lookup, snapshot-backed routing, and the per-VCI instrumentation reads.
// Nothing here takes a control-plane lock; every routing question resolves
// through one acquire-load of the published TopologySnapshot (the per-poll
// pin lives in TopoRef, internal.hpp — the accessors below are the cold
// out-of-section paths and pay their own load).
#include "world_layers.hpp"

namespace mpx {

using core_detail::RankCtx;
using core_detail::Vci;

namespace core_detail {

namespace {

/// The bell of VCI slot (rank, vci), owned by the World (Datapath::bells).
base::Doorbell& slot_bell(World& w, int rank, int vci) {
  return WorldAccess::state(w)
      .dp.bells[static_cast<std::size_t>(rank) *
                    static_cast<std::size_t>(w.config().max_vcis) +
                static_cast<std::size_t>(vci)];
}

}  // namespace

// No thread-safety analysis: the guarded matcher/pool members are sized
// here before the VCI is published, when no other thread can reach it (the
// same construction-time exclusivity ~Vci relies on). Taking v->mu instead
// would acquire LockRank::vci while stream_create holds the vci-table lock
// — the reverse of the documented order.
std::unique_ptr<Vci> make_vci(World* w, int rank, int id,
                              unsigned mask) MPX_NO_THREAD_SAFETY_ANALYSIS {
  auto v = std::make_unique<Vci>();
  v->id = id;
  v->rank = rank;
  v->world = w;
  v->default_mask = mask;
  // Size the matcher before the VCI is published; nobody else can hold
  // v->mu yet.
  const WorldConfig& cfg = w->config();
  const auto nbins =
      static_cast<std::size_t>(cfg.match_bins < 1 ? 1 : cfg.match_bins);
  v->posted.init(nbins);
  v->unexpected.init(nbins);
  // Compile the published registry into this VCI's stage table. The
  // source/mask halves never change afterwards; the embedded counters are
  // this VCI's own.
  v->stages = w->progress_registry().compile();
  v->sink = make_vci_sink(*v);
  v->bell = &slot_bell(*w, rank, id);
  return v;
}

void ring_vci(World& w, int rank, int vci) { slot_bell(w, rank, vci).ring(); }

base::Doorbell& vci_bell(Vci& v) { return *v.bell; }

bool vci_quiet(const Vci& v) {
  if (v.hook_count.load(std::memory_order_relaxed) != 0) return false;
  for (const auto& t : WorldAccess::state(*v.world).ctl.transports) {
    if (!t->idle(v.rank, v.id)) return false;
  }
  return true;
}

void vci_relay(Vci& v, base::Doorbell* bell) { v.bell->set_relay(bell); }

base::Doorbell& helper_bell(World& w) {
  return WorldAccess::state(w).dp.helper_bell;
}

}  // namespace core_detail

core_detail::Vci* World::vci_ptr(int rank, int vci_id) const {
  // Lock-free: two acquire loads on the progress hot path (wait/test loops
  // resolve the VCI on every call). Writers serialize on rc.vcis_mu and
  // publish slots/count with release stores.
  RankCtx& rc = *s_->dp.ranks[static_cast<std::size_t>(rank)];
  const std::uint32_t n = rc.vci_count.load(std::memory_order_acquire);
  expects(vci_id >= 0 && static_cast<std::uint32_t>(vci_id) < n,
          "vci id out of range");
  return rc.slots[static_cast<std::size_t>(vci_id)].load(
      std::memory_order_acquire);
}

Vci& World::vci(int rank, int vci_id) { return *vci_ptr(rank, vci_id); }

transport::Transport& World::route(int src, int dst) const {
  // Cold path (tests, upper layers sizing decisions). Hot-path routing pins
  // once per critical section via TopoRef instead of re-loading here.
  return *s_->dp.topo.acquire()->carrier(src, dst);
}

bool World::same_node(int a, int b) const {
  return s_->dp.topo.acquire()->same_node(a, b);
}

const core_detail::TopologyHandle& World::topology() const {
  return s_->dp.topo;
}

std::uint64_t World::topology_epoch() const {
  return s_->dp.topo.acquire()->epoch;
}

const core_detail::ProgressRegistry& World::progress_registry() const {
  return s_->ctl.registry;
}

base::MutexStats World::vci_lock_stats(int rank, int vci_id) const {
  return vci_ptr(rank, vci_id)->mu.stats();
}

std::uint64_t World::vci_progress_calls(int rank, int vci_id) const {
  // The table lock is released before taking the VCI lock: ranks only go up.
  Vci& v = *vci_ptr(rank, vci_id);
  base::LockGuard<base::InstrumentedMutex> g(v.mu);
  return v.progress_calls;
}

std::vector<World::StageCounter> World::vci_stage_table(int rank,
                                                        int vci_id) const {
  Vci& v = *vci_ptr(rank, vci_id);
  base::LockGuard<base::InstrumentedMutex> g(v.mu);
  std::vector<StageCounter> out;
  out.reserve(v.stages.size());
  for (const core_detail::ProgressStage& st : v.stages) {
    out.push_back(StageCounter{st.source->name(), st.mask, st.calls, st.hits});
  }
  return out;
}

World::WaitRungCounters World::vci_wait_rungs(int rank, int vci_id) const {
  // Lock-free like the counters themselves: rungs are relaxed accounting,
  // not synchronization.
  const core_detail::WaitLadderCounters::Snapshot s =
      vci_ptr(rank, vci_id)->wait_rungs.snapshot();
  return WaitRungCounters{s.spin, s.yield, s.sleep};
}

std::int64_t World::vci_pending(int rank, int vci_id) const {
  const Vci& v = *vci_ptr(rank, vci_id);
  return v.active_ops.load(std::memory_order_relaxed) +
         v.hook_count.load(std::memory_order_relaxed);
}

World::MatchCounters World::vci_match_counters(int rank, int vci_id) const {
  Vci& v = *vci_ptr(rank, vci_id);
  base::LockGuard<base::InstrumentedMutex> g(v.mu);
  MatchCounters c;
  c.posted = v.posted.size();
  c.unexpected = v.unexpected.size();
  return c;
}

}  // namespace mpx
