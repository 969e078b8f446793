// The one translation unit that names the concrete in-tree transports.
// mpx::core calls make_builtin_transports() and from then on sees only
// transport::Transport pointers; keeping construction here lets src/core
// drop every include of shm/nic headers.
#include "mpx/transport/builtin.hpp"

#include <utility>

#include "mpx/core/config.hpp"
#include "mpx/net/nic.hpp"
#include "mpx/shm/shm_transport.hpp"

namespace mpx::transport {

std::vector<std::unique_ptr<Transport>> make_builtin_transports(
    const WorldConfig& cfg, const base::Clock& clock) {
  std::vector<std::unique_ptr<Transport>> out;
  out.push_back(std::make_unique<shm::ShmTransport>(
      cfg.nranks, cfg.max_vcis, cfg.shm_cells, shm::ShmTransport::kSlotBytes,
      shm::ShmTransport::kDeliverBatch, cfg.ranks_per_node,
      cfg.shm_eager_max));
  TransportLimits net_limits;
  net_limits.eager_max = cfg.net_eager_max;
  net_limits.lightweight_max = cfg.net_lightweight_max;
  net_limits.pipeline_min = cfg.net_pipeline_min;
  net_limits.pipeline_chunk = cfg.net_pipeline_chunk;
  net_limits.pipeline_inflight = cfg.net_pipeline_inflight;
  out.push_back(std::make_unique<net::Nic>(cfg.nranks, cfg.max_vcis, cfg.net,
                                           clock, net_limits));
  return out;
}

}  // namespace mpx::transport
