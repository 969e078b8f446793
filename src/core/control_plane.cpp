// World's control plane: construction, stream lifecycle, context-id
// allocation, transport ownership, and — the part everything else here
// exists to serve — topology publication with the epoch-fenced swap
// (fence -> drain -> cutover) that re-routes a rank pair mid-traffic
// without losing, duplicating, or reordering a single message. See
// world_layers.hpp for the layer split and topology.hpp for the
// publication protocol the mc suite explores.
#include "world_layers.hpp"

#include "mpx/transport/builtin.hpp"
#include "test_hooks.hpp"

namespace mpx {

using core_detail::Datapath;
using core_detail::RankCtx;
using core_detail::TopologySnapshot;
using core_detail::Vci;

namespace {

/// Compile first-match routing over the ordered transport list into flat
/// (untagged) snapshot entries. reaches() must be pure — the table is the
/// only place it is consulted.
std::vector<std::uintptr_t> compile_route(
    const std::vector<transport::Transport*>& ts, int nranks) {
  std::vector<std::uintptr_t> route(
      static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks), 0);
  for (int src = 0; src < nranks; ++src) {
    for (int dst = 0; dst < nranks; ++dst) {
      const std::size_t idx =
          static_cast<std::size_t>(src) * static_cast<std::size_t>(nranks) +
          static_cast<std::size_t>(dst);
      for (transport::Transport* t : ts) {
        if (t->reaches(src, dst)) {
          route[idx] = reinterpret_cast<std::uintptr_t>(t);
          break;
        }
      }
      expects(route[idx] != 0, "World: no transport reaches a rank pair");
    }
  }
  return route;
}

/// Writer-side grace period: after a publication at `epoch`, wait until no
/// VCI can still touch an older snapshot (topology.hpp). The vci-table
/// lock-pass per rank doubles as the creation fence: a VCI created after
/// it happens-after the publication (vcis_mu release/acquire), so its
/// first pin must load the successor; a VCI created before is in the
/// collected list. Inactive VCIs cannot pin (every pin site runs on a live
/// stream) and are skipped — the same lifetime contract finalize_rank
/// already relies on.
void grace_period(Datapath& dp, std::uint64_t epoch) {
  for (const auto& rcp : dp.ranks) {
    RankCtx& rc = *rcp;
    std::vector<Vci*> live;
    {
      base::LockGuard<base::InstrumentedMutex> g(rc.vcis_mu);
      const std::uint32_t n = rc.vci_count.load(std::memory_order_acquire);
      live.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        Vci* v = rc.slots[i].load(std::memory_order_acquire);
        if (v != nullptr && v->active.load(std::memory_order_acquire)) {
          live.push_back(v);
        }
      }
    }
    for (Vci* v : live) {
      core_detail::topology_quiesce(v->topo_epoch, epoch, v->mu);
    }
  }
}

/// Drive progress on every live VCI of `rc` once (deliveries, CQ events,
/// LMT copies, async hooks); nonzero when anything moved. The published
/// length is re-read on every call: stream_create may grow the table
/// concurrently (slot storage is fixed, so no reallocation races).
int poll_rank(RankCtx& rc) {
  int made = 0;
  const std::uint32_t n = rc.vci_count.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    Vci* v = rc.slots[i].load(std::memory_order_acquire);
    if (v != nullptr && v->active.load(std::memory_order_acquire)) {
      made |= core_detail::progress_test(*v, progress_all);
    }
  }
  return made;
}

}  // namespace

World::World(WorldConfig cfg) : s_(std::make_unique<State>()) {
  expects(cfg.nranks >= 1, "World: nranks must be >= 1");
  expects(cfg.max_vcis >= 1, "World: max_vcis must be >= 1");
  if (cfg.ranks_per_node <= 0) cfg.ranks_per_node = cfg.nranks;
  core_detail::ControlPlane& ctl = s_->ctl;
  Datapath& dp = s_->dp;
  ctl.cfg = cfg;
  ctl.tracer = std::make_unique<trace::Tracer>(cfg.trace_capacity);
  if (cfg.use_virtual_clock) {
    auto vc = std::make_unique<base::VirtualClock>();
    ctl.vclock = vc.get();
    ctl.clock = std::move(vc);
  } else {
    ctl.clock = std::make_unique<base::SteadyClock>();
  }
  // Transport list, in routing order: extras first (they may claim rank
  // pairs ahead of the builtins), then shm, then the NIC catch-all.
  for (const auto& make : ctl.cfg.extra_transports) {
    auto t = make(*this);
    expects(t != nullptr, "World: extra_transports factory returned null");
    ctl.transports.push_back(std::move(t));
  }
  for (auto& t : transport::make_builtin_transports(ctl.cfg, *ctl.clock)) {
    ctl.transports.push_back(std::move(t));
  }
  // The construction-time TopologySnapshot (epoch 1). No readers exist
  // yet, so install() needs no grace period.
  {
    auto snap = std::make_unique<TopologySnapshot>();
    snap->nranks = cfg.nranks;
    snap->ranks_per_node = cfg.ranks_per_node;
    snap->transports.reserve(ctl.transports.size());
    for (const auto& t : ctl.transports) snap->transports.push_back(t.get());
    snap->route = compile_route(snap->transports, cfg.nranks);
    dp.pairs.resize(cfg.nranks);
    snap->pairs = &dp.pairs;
    {
      base::LockGuard<base::InstrumentedMutex> g(ctl.mu);
      snap->epoch = ctl.next_epoch++;
    }
    dp.topo.install(snap.release());
  }
  // Progress registry: in-tree sources in Listing 1.1 order, then
  // link-time static sources (e.g. the collective schedule executor), then
  // extras, then one poll stage per transport. Published before the first
  // make_vci so every VCI compiles the same immutable stage order.
  core_detail::register_builtin_sources(ctl.registry);
  for (const auto make : core_detail::static_source_factories()) {
    auto src = make(*this);
    expects(src != nullptr, "World: static source factory returned null");
    ctl.registry.add(std::move(src));
  }
  for (const auto& make : ctl.cfg.extra_sources) {
    auto src = make(*this);
    expects(src != nullptr, "World: extra_sources factory returned null");
    ctl.registry.add(std::move(src));
  }
  std::vector<transport::Transport*> tlist;
  tlist.reserve(ctl.transports.size());
  for (const auto& t : ctl.transports) tlist.push_back(t.get());
  core_detail::register_transport_sources(ctl.registry, tlist);
  ctl.registry.publish();
  dp.bells = std::make_unique<base::Doorbell[]>(
      static_cast<std::size_t>(cfg.nranks) *
      static_cast<std::size_t>(cfg.max_vcis));
  dp.ranks.reserve(static_cast<std::size_t>(cfg.nranks));
  for (int r = 0; r < cfg.nranks; ++r) {
    auto rc = std::make_unique<RankCtx>();
    rc->rank = r;
    rc->world = this;
    rc->slots = std::vector<mc::atomic<Vci*>>(
        static_cast<std::size_t>(cfg.max_vcis));
    rc->slots[0].store(
        core_detail::make_vci(this, r, 0, progress_all).release(),
        std::memory_order_release);
    rc->vci_count.store(1, std::memory_order_release);
    dp.ranks.push_back(std::move(rc));
  }
  // The world communicator: context ids 0 (p2p) and 1 (collectives).
  auto ci = std::make_shared<core_detail::CommImpl>();
  ci->world = this;
  ci->context_id = 0;
  ci->coll_context_id = 1;
  ci->group.resize(static_cast<std::size_t>(cfg.nranks));
  ci->coll_seq.assign(static_cast<std::size_t>(cfg.nranks), 0);
  ci->vcis.assign(static_cast<std::size_t>(cfg.nranks), 0);
  ci->world_to_comm.resize(static_cast<std::size_t>(cfg.nranks));
  for (int r = 0; r < cfg.nranks; ++r) {
    ci->group[static_cast<std::size_t>(r)] = r;
    ci->world_to_comm[static_cast<std::size_t>(r)] = r;
  }
  ci->coord = std::make_unique<core_detail::Coordinator>(cfg.nranks);
  ctl.world_comm = std::move(ci);
}

World::~World() {
  // Preserve the seed's teardown order across the layer split: the world
  // communicator first, then the datapath (VCIs), then the control plane's
  // registry and transports (State member order handles the rest).
  s_->ctl.world_comm.reset();
}

Stream World::stream_create(int rank, const Info& info) {
  expects(rank >= 0 && rank < size(), "stream_create: rank out of range");
  unsigned mask = progress_all;
  if (info.get_bool("mpx_skip_netmod", false)) mask &= ~progress_net;
  if (info.get_bool("mpx_skip_shm", false)) mask &= ~progress_shm;
  if (info.get_bool("mpx_skip_dtype", false)) mask &= ~progress_dtype;
  if (info.get_bool("mpx_skip_coll", false)) mask &= ~progress_coll;

  RankCtx& rc = *s_->dp.ranks[static_cast<std::size_t>(rank)];
  base::LockGuard<base::InstrumentedMutex> g(rc.vcis_mu);
  // Reuse a freed slot if available. The release store publishes the fresh
  // Vci to lock-free readers only after it is fully constructed.
  const std::uint32_t n = rc.vci_count.load(std::memory_order_acquire);
  for (std::uint32_t i = 1; i < n; ++i) {
    Vci* old = rc.slots[i].load(std::memory_order_acquire);
    if (!old->active.load(std::memory_order_acquire)) {
      auto fresh = core_detail::make_vci(this, rank, static_cast<int>(i), mask);
      delete old;
      rc.slots[i].store(fresh.release(), std::memory_order_release);
      return Stream(this, rank, static_cast<int>(i), mask);
    }
  }
  expects(static_cast<int>(n) < s_->ctl.cfg.max_vcis,
          "stream_create: max_vcis exhausted (raise WorldConfig::max_vcis)");
  const int id = static_cast<int>(n);
  rc.slots[n].store(core_detail::make_vci(this, rank, id, mask).release(),
                    std::memory_order_release);
  rc.vci_count.store(n + 1, std::memory_order_release);
  return Stream(this, rank, id, mask);
}

void World::stream_free(Stream& stream) {
  expects(stream.valid() && &stream.world() == this,
          "stream_free: stream does not belong to this world");
  expects(stream.vci() != 0, "stream_free: cannot free the null stream");
  Vci& v = vci(stream.rank(), stream.vci());
  {
    base::LockGuard<base::InstrumentedMutex> g(v.mu);
    expects(v.asyncs.empty() && v.posted.empty() && v.lmt.empty() &&
                v.fence_parked.empty() && v.synth_cq.empty() &&
                v.active_ops.load(std::memory_order_relaxed) == 0,
            "stream_free: stream still has pending work");
    for (const core_detail::ProgressStage& st : v.stages) {
      expects(st.source->quiescent(v),
              "stream_free: a progress source still has pending work");
    }
#if MPX_MODEL_CHECK
    // Seeded-mutation self-test hook: reintroduce the PR 1 bug — publishing
    // reusability while still holding v.mu lets a concurrent stream_create
    // destroy the mutex mid-unlock. The mc suite must catch this as a
    // mutex-destroyed-while-held failure.
    if (mc::mut::stream_free_publish_under_lock) {
      v.active.store(false, std::memory_order_release);
      stream = Stream();
      return;
    }
#endif
  }
  // Publish reusability only AFTER the guard released v.mu: stream_create
  // deletes the Vci as soon as it observes active == false (acquire), and
  // the release store below is what orders that deletion after our unlock.
  // Storing while still holding the lock let a concurrent create destroy
  // the mutex mid-unlock (caught by the tsan preset).
  v.active.store(false, std::memory_order_release);
  stream = Stream();
}

void World::finalize_rank(int rank) {
  expects(rank >= 0 && rank < size(), "finalize_rank: rank out of range");
  RankCtx& rc = *s_->dp.ranks[static_cast<std::size_t>(rank)];
  // Drive progress on every live VCI of this rank until quiescent (the
  // paper: "MPI_Finalize will spin progress until all async tasks
  // complete"). Idle rounds are charged to the rank's default VCI.
  const auto quiet = [&] {
    const std::uint32_t nvcis = rc.vci_count.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < nvcis; ++i) {
      Vci& v = *rc.slots[i].load(std::memory_order_acquire);
      if (!v.active.load(std::memory_order_acquire)) continue;
      base::LockGuard<base::InstrumentedMutex> g(v.mu);
      if (!v.asyncs.empty() || !v.lmt.empty() || !v.fence_parked.empty() ||
          !v.synth_cq.empty() || !v.pack_engine.idle() ||
          v.active_ops.load(std::memory_order_relaxed) != 0 ||
          !v.inbox_asyncs.maybe_empty()) {
        return false;
      }
      // Registered sources may hold deferred work the member lists above
      // don't see (e.g. a compiled collective schedule whose requests all
      // completed but whose local reduce tail hasn't run yet).
      for (const core_detail::ProgressStage& st : v.stages) {
        if (!st.source->quiescent(v)) return false;
      }
      for (const auto& t : s_->ctl.transports) {
        if (!t->idle(rank, static_cast<int>(i))) return false;
      }
    }
    return true;
  };
  core_detail::poll_until(core_detail::wait_policy(this),
                          &vci(rank, 0).wait_rungs,
                          [&rc] { return poll_rank(rc); }, quiet);
}

transport::Transport* World::find_transport(std::string_view name) const {
  for (const auto& t : s_->ctl.transports) {
    if (name == t->name()) return t.get();
  }
  return nullptr;
}

std::int32_t World::alloc_context_ids(int count) {
  expects(count >= 1, "alloc_context_ids: bad count");
  return s_->ctl.next_context_id.fetch_add(count, std::memory_order_relaxed);
}

}  // namespace mpx

namespace mpx::core_detail {

void swap_topology_for_test(World& w, int a, int b, transport::Transport& t) {
  expects(a >= 0 && a < w.size() && b >= 0 && b < w.size() && a != b,
          "swap_topology: bad rank pair");
  expects(t.reaches(a, b) && t.reaches(b, a),
          "swap_topology: transport does not reach the pair");
  ControlPlane& ctl = WorldAccess::state(w).ctl;
  Datapath& dp = WorldAccess::state(w).dp;
  bool owned = false;
  for (const auto& u : ctl.transports) owned = owned || u.get() == &t;
  expects(owned, "swap_topology: transport not registered with this world");

  // One swap at a time; also serializes against any future control-plane
  // mutation. Rank control (50) < vci (100): driving progress below while
  // holding this lock is rank-legal.
  base::LockGuard<base::InstrumentedMutex> g(ctl.mu);

  // Publish a successor snapshot whose (a,b)/(b,a) entries carry `t`,
  // fenced or not, then run the grace period and reclaim the predecessor.
  const auto publish_pair = [&](bool fence) {
    const TopologySnapshot* cur = dp.topo.acquire();
    auto next = std::make_unique<TopologySnapshot>(*cur);
    next->epoch = ctl.next_epoch++;
    const std::uintptr_t entry =
        reinterpret_cast<std::uintptr_t>(&t) |
        (fence ? TopologySnapshot::kFenceBit : std::uintptr_t{0});
    next->route[next->pair_index(a, b)] = entry;
    next->route[next->pair_index(b, a)] = entry;
    const std::uint64_t epoch = next->epoch;
    const TopologySnapshot* prev = dp.topo.publish(next.release());
    grace_period(dp, epoch);
    delete prev;
  };

  // Phase 1 — FENCE: after this publication's grace period, every send for
  // the pair parks (in order) instead of injecting, and protocol selection
  // already sees the new carrier's caps/limits. The pair's `sent` counts
  // are frozen from here on: every increment happened-before the grace
  // period's v.mu handoff, so in flight = sent - recvd can only fall.
  publish_pair(/*fence=*/true);

  // Phase 2 — DRAIN: deliver everything still riding the old carrier.
  // Replies the deliveries generate (CTS/ACK/refilled pipeline chunks) park
  // behind the fence, so `recvd` catches up with `sent`; polling both
  // endpoints from this thread is what moves it. A virtual clock must be
  // advanced or the simulated NIC's delivery deadlines never come due.
  // Idle rounds are charged to rank a's default VCI.
  poll_until(
      wait_policy(&w), &w.vci(a, 0).wait_rungs,
      [&] {
        const int made = poll_rank(*dp.ranks[static_cast<std::size_t>(a)]) |
                         poll_rank(*dp.ranks[static_cast<std::size_t>(b)]);
        if (ctl.vclock != nullptr) ctl.vclock->advance(1e-6);
        return made;
      },
      [&] {
        return dp.pairs.inflight(a, b) == 0 && dp.pairs.inflight(b, a) == 0;
      });

  // Phase 3 — CUTOVER: unfence. Each VCI's next progress call flushes its
  // parked sends, oldest first, onto the new carrier — per-pair FIFO holds
  // because every pre-fence message was delivered in phase 2 and parked
  // order is send order. The rings wake helpers asleep on those VCIs.
  publish_pair(/*fence=*/false);
  for (const int r : {a, b}) {
    const std::uint32_t n = dp.ranks[static_cast<std::size_t>(r)]
                                ->vci_count.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < n; ++i) {
      ring_vci(w, r, static_cast<int>(i));
    }
  }
}

}  // namespace mpx::core_detail
