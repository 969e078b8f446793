// mpx/core/config.hpp
//
// World construction parameters. Defaults come from MPX_* environment CVARs
// (MPICH-style) so benchmarks can sweep without recompiling.
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
/// through World::config(). CVARs: MPX_ENGINE_*.
struct ProgressEngineConfig {
  /// Controller epoch length in microseconds: how often the per-VCI
  /// windowed rates are sampled and promote/demote decisions made.
  /// CVAR: MPX_ENGINE_EPOCH_US.
  int epoch_us = 500;

  /// Ceiling on engine-owned threads polling VCIs: the one shared poller
  /// plus live dedicated helpers (the controller itself is not counted).
  /// Promotions that would exceed it are deferred, not dropped. CVAR:
  /// MPX_ENGINE_MAX_WORKERS.
  int max_workers = 2;

  /// Promote shared -> dedicated when the engine's own polls on the VCI
  /// hit (made progress) at or above this rate over the epoch. CVAR:
  /// MPX_ENGINE_DEDICATE_RATE.
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

  /// Shared-memory transport: eager cutover and ring capacity.
  std::size_t shm_eager_max = 64 * 1024;
  std::size_t shm_cells = 64;
  /// Inline payload capacity of each ring cell (payloads up to this size
  /// are copied in-slot; larger eager payloads ride in a pooled block
  /// referenced by the cell). CVAR: MPX_SHM_SLOT_BYTES.
  std::size_t shm_slot_bytes = 256;
  /// Max cells delivered per channel per poll under one acquire/publish
  /// pair. CVAR: MPX_SHM_DELIVER_BATCH.
  int shm_deliver_batch = 16;
  /// Shared-memory LMT copy chunk (receiver-side copy work per poll).
  std::size_t shm_lmt_chunk = 256 * 1024;

  /// Wait-loop backoff policy (request.cpp): spin this many empty progress
  /// rounds at full rate (<0 = spin forever), then sched-yield this many
  /// rounds (<0 = never sleep), then sleep with exponential backoff capped
  /// at wait_sleep_max_us. Any progress resets the ladder. CVARs:
  /// MPX_WAIT_SPIN, MPX_WAIT_YIELD, MPX_WAIT_SLEEP_MAX.
  int wait_spin = 200;
  int wait_yield = 32;
  /// Sleep-rung cap in microseconds. The whole ladder also paces every idle
  /// task-layer progress thread (task::ProgressThread, the adaptive
  /// engine's workers and dedicated helpers), so these three knobs govern
  /// every idle poller in the process.
  int wait_sleep_max_us = 64;

  /// Adaptive progress engine tuning (task::ProgressEngine reads this
  /// through World::config(); constructing a World never starts engine
  /// threads by itself). CVARs: MPX_ENGINE_*.
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
  /// degenerates to the seed's single linear queue. CVAR: MPX_MATCH_BINS.
  int match_bins = 64;

  /// Parked-block cap of each VCI's unexpected-message freelist.
  /// CVAR: MPX_POOL_UNEXP_CAP.
  int pool_unexp_cap = 256;

  /// Fair stage scheduling: each VCI keeps a rotation cursor and resumes
  /// the early-exit progress scan after the last productive stage, bounding
  /// how long a chatty early stage (e.g. a busy user async hook) can starve
  /// later ones. Off restores the seed's fixed scan-from-the-top order.
  /// CVAR: MPX_PROGRESS_FAIR.
  bool progress_fair = true;

  /// Out-of-tree progress stages, appended to the registry after the
  /// in-tree dtype/coll/async sources and before the transport stages.
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

  /// Construct a config with defaults taken from MPX_* environment CVARs.
  static WorldConfig from_env(int nranks);
};

}  // namespace mpx
