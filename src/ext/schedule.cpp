#include "mpx/ext/schedule.hpp"

#include "mpx/core/async.hpp"
#include "mpx/core/world.hpp"

namespace mpx::ext {

Schedule::Schedule(World& world, const Stream& stream)
    : world_(&world), stream_(stream) {
  expects(stream.valid(), "Schedule: invalid stream");
}

void Schedule::add_operation(Request request) {
  expects(request.valid(), "Schedule::add_operation: invalid request");
  cur().reqs.push_back(std::move(request));
}

void Schedule::add_mpi_operation(dtype::ReduceOp op, const void* invec,
                                 void* inoutvec, std::size_t len,
                                 dtype::Datatype dt) {
  cur().local_ops.push_back(LocalOp{op, invec, inoutvec, len, std::move(dt)});
}

void Schedule::create_round() { rounds_.emplace_back(); }

void Schedule::mark_completion_point() {
  cur();  // materialize the round
  completion_round_ = rounds_.size() - 1;
  has_completion_point_ = true;
}

bool Schedule::poll() {
  while (cur_round_ < rounds_.size()) {
    Round& r = rounds_[cur_round_];
    for (const Request& rq : r.reqs) {
      if (!rq.is_complete()) return false;
    }
    for (const LocalOp& op : r.local_ops) {
      dtype::reduce_apply(op.op, op.in, op.inout, op.len, op.dt);
    }
    const bool is_completion_round =
        has_completion_point_ ? cur_round_ == completion_round_
                              : cur_round_ + 1 == rounds_.size();
    ++cur_round_;
    if (is_completion_round && !handle_completed_) {
      handle_completed_ = true;
      World::grequest_complete(handle_);
    }
  }
  return true;
}

AsyncResult Schedule::poll_trampoline(AsyncThing& thing) {
  auto* s = static_cast<Schedule*>(thing.state());
  if (!s->poll()) return AsyncResult::pending;
  if (!s->handle_completed_) {
    World::grequest_complete(s->handle_);
  }
  delete s;
  return AsyncResult::done;
}

Request Schedule::commit(std::unique_ptr<Schedule> sched) {
  expects(sched != nullptr, "Schedule::commit: null schedule");
  Schedule* s = sched.release();
  if (s->rounds_.empty()) s->rounds_.emplace_back();
  s->handle_ = s->world_->grequest_start(s->stream_,
                                         core_detail::GrequestFns{});
  Request out = s->handle_;
  async_start(&Schedule::poll_trampoline, s, s->stream_,
              [](void* p) { delete static_cast<Schedule*>(p); });
  return out;
}

}  // namespace mpx::ext
