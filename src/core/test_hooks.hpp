// src/core/test_hooks.hpp
//
// Control-plane entry points that only tests and benches call. They live
// outside the public headers: an application has no business re-routing a
// rank pair. Consumers add the source root to their include path.
#pragma once

namespace mpx {
class World;
namespace transport {
class Transport;
}
}  // namespace mpx

namespace mpx::core_detail {

/// Re-route the (a, b) rank pair (both directions) of `w` onto transport
/// `t`, which must be one of `w`'s transports and must reach both
/// directions of the pair. Safe to call mid-traffic from any non-rank
/// thread: the pair is fenced (new sends park in order), drained
/// (in-flight messages on the old carrier delivered, driven by this
/// thread), then cut over — zero messages lost, duplicated, or reordered.
/// Serialized against other swaps by the control mutex. NOT poll-safe:
/// never call from a progress callback (mpxlint's progress-contract check
/// enforces this). This is the mechanism a rank join/leave or a reconnect
/// state machine would drive.
void swap_topology_for_test(World& w, int a, int b, transport::Transport& t);

}  // namespace mpx::core_detail
