// World facade: the thin public accessors that don't belong to either
// layer. The substance lives in control_plane.cpp (lifecycle + topology
// publication) and datapath.cpp (lock-free reads); world_layers.hpp defines
// the split.
#include "mpx/core/world.hpp"

#include "world_layers.hpp"

namespace mpx {

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
