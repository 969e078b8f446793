// World facade: configuration parsing and the thin public accessors that
// don't belong to either layer. The substance lives in control_plane.cpp
// (lifecycle + topology publication) and datapath.cpp (lock-free reads);
// world_layers.hpp defines the split.
#include "mpx/core/world.hpp"

#include "mpx/base/cvar.hpp"
#include "world_layers.hpp"

namespace mpx {

WorldConfig WorldConfig::from_env(int nranks) {
  namespace b = base;
  WorldConfig c;
  c.nranks = nranks;
  c.ranks_per_node = static_cast<int>(b::cvar_int("MPX_RANKS_PER_NODE", 0));
  c.max_vcis = static_cast<int>(b::cvar_int("MPX_MAX_VCIS", 16));
  c.shm_eager_max =
      static_cast<std::size_t>(b::cvar_int("MPX_SHM_EAGER_MAX", 64 * 1024));
  c.shm_cells = static_cast<std::size_t>(b::cvar_int("MPX_SHM_CELLS", 64));
  c.shm_slot_bytes =
      static_cast<std::size_t>(b::cvar_int("MPX_SHM_SLOT_BYTES", 256));
  c.shm_deliver_batch =
      static_cast<int>(b::cvar_int("MPX_SHM_DELIVER_BATCH", 16));
  c.shm_lmt_chunk =
      static_cast<std::size_t>(b::cvar_int("MPX_SHM_LMT_CHUNK", 256 * 1024));
  c.net_lightweight_max =
      static_cast<std::size_t>(b::cvar_int("MPX_NET_LIGHTWEIGHT_MAX", 1024));
  c.net_eager_max =
      static_cast<std::size_t>(b::cvar_int("MPX_NET_EAGER_MAX", 64 * 1024));
  c.net_pipeline_min = static_cast<std::size_t>(
      b::cvar_int("MPX_NET_PIPELINE_MIN", 1024 * 1024));
  c.net_pipeline_chunk = static_cast<std::size_t>(
      b::cvar_int("MPX_NET_PIPELINE_CHUNK", 256 * 1024));
  c.net_pipeline_inflight =
      static_cast<int>(b::cvar_int("MPX_NET_PIPELINE_INFLIGHT", 4));
  c.net.alpha = b::cvar_double("MPX_NET_ALPHA", c.net.alpha);
  c.net.beta = b::cvar_double("MPX_NET_BETA", c.net.beta);
  c.net.gamma = b::cvar_double("MPX_NET_GAMMA", c.net.gamma);
  c.net.inj_beta = b::cvar_double("MPX_NET_INJ_BETA", c.net.inj_beta);
  c.use_virtual_clock = b::cvar_bool("MPX_VIRTUAL_CLOCK", false);
  c.trace_capacity =
      static_cast<std::size_t>(b::cvar_int("MPX_TRACE_CAPACITY", 0));
  c.match_bins = static_cast<int>(b::cvar_int("MPX_MATCH_BINS", 64));
  c.pool_unexp_cap =
      static_cast<int>(b::cvar_int("MPX_POOL_UNEXP_CAP", 256));
  c.wait_spin = static_cast<int>(b::cvar_int("MPX_WAIT_SPIN", 200));
  c.wait_yield = static_cast<int>(b::cvar_int("MPX_WAIT_YIELD", 32));
  c.wait_sleep_max_us =
      static_cast<int>(b::cvar_int("MPX_WAIT_SLEEP_MAX", 64));
  c.progress_fair = b::cvar_bool("MPX_PROGRESS_FAIR", true);
  c.progress_engine.epoch_us =
      static_cast<int>(b::cvar_int("MPX_ENGINE_EPOCH_US", 500));
  c.progress_engine.max_workers =
      static_cast<int>(b::cvar_int("MPX_ENGINE_MAX_WORKERS", 2));
  c.progress_engine.dedicate_hit_rate =
      b::cvar_double("MPX_ENGINE_DEDICATE_RATE", 0.5);
  return c;
}

std::shared_ptr<World> World::create(WorldConfig cfg) {
  return std::shared_ptr<World>(new World(std::move(cfg)));
}

int World::size() const { return s_->ctl.cfg.nranks; }
const WorldConfig& World::config() const { return s_->ctl.cfg; }
double World::wtime() const { return s_->ctl.clock->now(); }
const base::Clock& World::clock() const { return *s_->ctl.clock; }
base::VirtualClock* World::virtual_clock() { return s_->ctl.vclock; }
trace::Tracer& World::tracer() { return *s_->ctl.tracer; }

Comm World::comm_world(int rank) {
  expects(rank >= 0 && rank < size(), "comm_world: rank out of range");
  return Comm(s_->ctl.world_comm, rank);
}

Stream World::null_stream(int rank) {
  expects(rank >= 0 && rank < size(), "null_stream: rank out of range");
  return Stream(this, rank, 0, progress_all);
}

Request World::grequest_start(int rank, core_detail::GrequestFns fns) {
  expects(rank >= 0 && rank < size(), "grequest_start: rank out of range");
  return grequest_start(null_stream(rank), fns);
}

Request World::grequest_start(const Stream& stream,
                              core_detail::GrequestFns fns) {
  expects(stream.valid() && &stream.world() == this,
          "grequest_start: stream does not belong to this world");
  auto* r = new core_detail::RequestImpl(core_detail::ReqKind::grequest);
  r->world = this;
  r->vci = &vci(stream.rank(), stream.vci());
  r->self = stream.rank();
  r->greq = fns;
  return Request(base::Ref<core_detail::RequestImpl>(r));
}

void World::grequest_complete(Request& req) {
  auto* r = req.impl();
  expects(r != nullptr && r->kind == core_detail::ReqKind::grequest,
          "grequest_complete: not a generalized request");
  core_detail::complete_request(r, Err::success);
}

}  // namespace mpx
