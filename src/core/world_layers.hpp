// src/core/world_layers.hpp
//
// The two layers behind the World facade (docs/architecture.md, "Control
// plane vs datapath"):
//
//  - ControlPlane (control_plane.cpp): everything that MUTATES shared
//    world state — construction, comm/stream lifecycle, context-id
//    allocation, transport ownership, and topology publication. Topology
//    mutations serialize on `mu` (LockRank::control, rank 50 — BELOW the
//    VCI locks, because a swap drives progress, and therefore takes VCI
//    locks, while holding it). Stream lifecycle keeps serializing on each
//    rank's vci-table mutex instead: stream_create may be called from
//    inside a poll callback already holding a VCI lock, where acquiring
//    the control mutex would invert the rank order.
//
//  - Datapath (datapath.cpp): everything the per-message hot paths read —
//    VCI tables, the published TopologySnapshot, and the pair in-flight
//    counters. The datapath NEVER takes a control-plane lock: route
//    lookups go through one snapshot acquire-load per poll/send (TopoRef,
//    internal.hpp), VCI lookups through the PR 5 lock-free slot loads.
//
// The seam is Datapath::topo (topology.hpp): the control plane builds a
// successor snapshot, publishes it with one exchange, proves the grace
// period via per-VCI quiescence epochs (lock-pass fallback), and only then
// reclaims the predecessor.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "internal.hpp"
#include "mpx/base/clock.hpp"
#include "mpx/core/topology.hpp"

namespace mpx::core_detail {

/// Control-plane state: owned resources and lifecycle bookkeeping. Apart
/// from `next_epoch` (guarded by `mu`) and `next_context_id` (atomic),
/// every member is frozen by the end of World construction; the registry
/// is frozen at publish().
struct ControlPlane {
  /// Serializes topology publication and any future control-plane mutation
  /// (rank join/leave, transport hot-plug). See the header comment for why
  /// it ranks below the VCI locks.
  base::InstrumentedMutex mu{"control", base::LockRank::control};

  WorldConfig cfg;  // mpxlint: allow(tsa-ratchet) immutable after construction
  std::unique_ptr<trace::Tracer> tracer;  // mpxlint: allow(tsa-ratchet) immutable after construction
  std::unique_ptr<base::Clock> clock;  // mpxlint: allow(tsa-ratchet) immutable after construction
  base::VirtualClock* vclock = nullptr;  ///< aliases clock when virtual — mpxlint: allow(tsa-ratchet) immutable after construction

  /// Transport ownership (list order = routing order). Declared before the
  /// Datapath in World::State: VCI stage tables, sinks, and snapshots all
  /// reference transports, so the datapath must die first.
  std::vector<std::unique_ptr<transport::Transport>> transports;  // mpxlint: allow(tsa-ratchet) immutable after construction
  ProgressRegistry registry;  ///< frozen at publish(), before any VCI exists

  // Raw std::atomic on purpose: a monotone id allocator, not modeled
  // protocol state.
  std::atomic<std::int32_t> next_context_id{16};  // mpxlint: allow(mc-coverage) monotone allocator
  std::shared_ptr<CommImpl> world_comm;  // mpxlint: allow(tsa-ratchet) immutable after construction

  /// Next snapshot epoch (1 = the construction-time snapshot).
  std::uint64_t next_epoch MPX_GUARDED_BY(mu) = 1;
};

/// Datapath state: what the per-message hot paths read. The tables are
/// lock-free to READ; writers live in the control plane (topology) or
/// behind the per-rank vci-table mutex (stream lifecycle).
struct Datapath {
  /// The published TopologySnapshot (topology.hpp). All route/same_node/
  /// transport-order reads on the hot path resolve through one
  /// acquire-load of this handle per poll/send.
  TopologyHandle topo;
  /// In-flight message counters per (src, dst) pair (sender-written sent
  /// rows, receiver-written recvd rows). Owned here — NOT by the snapshot —
  /// because they must survive publications; every snapshot points at
  /// this storage.
  PairCounters pairs;
  /// Per-rank VCI tables (lock-free lookup; see RankCtx).
  std::vector<std::unique_ptr<RankCtx>> ranks;
  /// One doorbell per VCI slot, [rank * max_vcis + id] (Vci::bell). Owned
  /// here, not by the Vci, so a ring never outlives its bell: the World
  /// outlives every ringer, and a recycled slot's stale ring is a spurious
  /// wake at worst.
  std::unique_ptr<base::Doorbell[]> bells;
  /// The bell of the engines' shared pollers (helper_bell): attached VCIs
  /// relay their rings here. Owned by the World, not by an engine, because
  /// a ringer that read a VCI's relay just before detach cleared it may
  /// still ring it.
  base::Doorbell helper_bell;
};

/// Construct one VCI (datapath.cpp). Runs before the VCI is published, so
/// guarded members are sized without taking the (not yet shared) lock.
std::unique_ptr<Vci> make_vci(World* w, int rank, int id, unsigned mask);

}  // namespace mpx::core_detail

namespace mpx {

/// The World facade's backing store: control plane first (so the datapath
/// — whose VCIs and snapshots reference control-owned transports and the
/// registry — is destroyed first).
struct World::State {
  core_detail::ControlPlane ctl;
  core_detail::Datapath dp;
};

}  // namespace mpx

namespace mpx::core_detail {

/// The core's way past the World facade (World befriends it).
struct WorldAccess {
  static World::State& state(World& w) { return *w.s_; }
};

}  // namespace mpx::core_detail
