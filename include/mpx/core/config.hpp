// mpx/core/config.hpp
//
// World construction parameters. Plain data: a World reads only what its
// creator set here, never the environment, so a bench or test that sweeps a
// knob sets the field.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "mpx/net/cost_model.hpp"

namespace mpx {

class World;
namespace core_detail {
class ProgressSource;
}
namespace transport {
class Transport;
}

/// Tuning of the adaptive progress engine (task::ProgressEngine). Plain
/// data held by WorldConfig so the engine, its tests, and its benches share
/// one knob set; the engine itself lives in the task layer and reads this
/// through World::config().
struct ProgressEngineConfig {
  /// Controller epoch length in microseconds: how often the per-VCI
  /// windowed rates are sampled and promote/demote decisions made.
  int epoch_us = 500;

  /// Ceiling on engine-owned threads polling VCIs: the one shared poller
  /// plus live dedicated helpers (the controller itself is not counted).
  /// Promotions that would exceed it are deferred, not dropped.
  int max_workers = 2;

  /// Promote shared -> dedicated when the engine's own polls on the VCI
  /// hit (made progress) at or above this rate over the epoch.
  double dedicate_hit_rate = 0.5;
};

/// Configuration for a World (one simulated MPI job).
struct WorldConfig {
  /// Number of ranks in the job.
  int nranks = 1;

  /// Ranks per simulated node: pairs within a node use the shared-memory
  /// transport, pairs across nodes use the simulated NIC. Default (0) means
  /// "all ranks on one node".
  int ranks_per_node = 0;

  /// Maximum number of VCIs (streams + the default VCI 0) per rank.
  int max_vcis = 16;

  /// Shared-memory transport: eager cutover and ring capacity. The cell's
  /// in-slot payload bytes and the per-poll delivery batch are
  /// ShmTransport::kSlotBytes and kDeliverBatch.
  std::size_t shm_eager_max = 64 * 1024;
  std::size_t shm_cells = 64;
  /// Shared-memory LMT copy chunk: the bytes one LMT poll claims and
  /// copies, on the receiver's side and on the sender's alike.
  std::size_t shm_lmt_chunk = 64 * 1024;

  /// Wait-loop backoff (core_detail::poll_until, wait_policy.hpp): spin
  /// this many empty progress rounds at full rate (<0 = spin forever), then
  /// sched-yield this many rounds (<0 = never sleep), then sleep with
  /// exponential backoff capped at wait_sleep_max_us. Any progress resets
  /// the ladder. Request waits, World drains and task::ProgressThread (and
  /// so the adaptive engine's pollers, while a VCI they serve is not quiet)
  /// on this World idle by these three fields; progress_until and the task
  /// waits built on it always spin at full rate
  /// (core_detail::kFullRateSpin).
  int wait_spin = 200;
  int wait_yield = 32;
  /// Sleep-rung cap in microseconds.
  int wait_sleep_max_us = 64;

  /// Adaptive progress engine tuning (task::ProgressEngine reads this
  /// through World::config(); constructing a World never starts engine
  /// threads by itself).
  ProgressEngineConfig progress_engine;

  /// Simulated NIC thresholds: <= lightweight is buffered-and-forget
  /// (Fig. 1a); <= eager_max completes at injection-done (Fig. 1b); above
  /// that, rendezvous (Fig. 1c); above pipeline_min, chunked pipeline mode.
  std::size_t net_lightweight_max = 1024;
  std::size_t net_eager_max = 64 * 1024;
  std::size_t net_pipeline_min = 1024 * 1024;
  std::size_t net_pipeline_chunk = 256 * 1024;
  int net_pipeline_inflight = 4;

  /// NIC timing model.
  net::CostModel net;

  /// Use a manually-advanced virtual clock (deterministic tests) instead of
  /// the steady clock.
  bool use_virtual_clock = false;

  /// Protocol-trace ring capacity (records). 0 disables tracing.
  std::size_t trace_capacity = 0;

  /// Message-matching bins per VCI (rounded up to a power of two). Posted
  /// receives and unexpected messages are hashed by (context, source); 1
  /// degenerates to the seed's single linear queue.
  int match_bins = 64;

  /// Out-of-tree progress stages, appended to the registry after the
  /// in-tree dtype/async sources and before the transport stages.
  /// Factories run during World construction; they may inspect
  /// World::config() and World::clock() but the World is not yet usable
  /// for communication.
  std::vector<
      std::function<std::unique_ptr<core_detail::ProgressSource>(World&)>>
      extra_sources;

  /// Out-of-tree transports, placed BEFORE the in-tree shm/nic pair in
  /// routing order (first transport whose reaches(src, dst) claims a rank
  /// pair carries it). Same construction-time restrictions as
  /// extra_sources.
  std::vector<std::function<std::unique_ptr<transport::Transport>(World&)>>
      extra_transports;
};

}  // namespace mpx
