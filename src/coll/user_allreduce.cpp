// Faithful port of the paper's Listing 1.8.
#include "mpx/coll/user_allreduce.hpp"

#include <cstdint>

#include "mpx/coll/coll.hpp"
#include "mpx/coll/ir.hpp"
#include "mpx/coll/ir_verify.hpp"
#include "mpx/core/async.hpp"
#include "mpx/core/waittest.hpp"

namespace mpx::coll {
namespace {

struct MyAllreduce {
  std::int32_t* buf = nullptr;
  std::int32_t* tmp_buf = nullptr;
  std::size_t count = 0;
  Comm comm;
  int rank = 0;
  int size = 0;
  int tag = 0;
  int mask = 1;
  Request reqs[2];  ///< send + recv request for the current round
  bool* done_ptr = nullptr;
};

AsyncResult my_allreduce_poll(AsyncThing& thing) {
  auto* p = static_cast<MyAllreduce*>(thing.state());
  int req_done = 0;
  for (Request& r : p->reqs) {
    if (!r.valid()) {
      ++req_done;
    } else if (r.is_complete()) {  // no progress side effects (§3.4)
      r.reset();
      ++req_done;
    }
  }
  if (req_done != 2) return AsyncResult::noprogress;

  if (p->mask > 1) {
    for (std::size_t i = 0; i < p->count; ++i) p->buf[i] += p->tmp_buf[i];
  }
  if (p->mask == p->size) {
    *(p->done_ptr) = true;
    delete[] p->tmp_buf;
    delete p;
    return AsyncResult::done;
  }
  const int dst = p->rank ^ p->mask;
  p->reqs[0] = p->comm.irecv(p->tmp_buf, p->count,
                             dtype::Datatype::int32(), dst, p->tag);
  p->reqs[1] = p->comm.isend(p->buf, p->count, dtype::Datatype::int32(), dst,
                             p->tag);
  p->mask <<= 1;
  return AsyncResult::noprogress;
}

}  // namespace

Err user_allreduce_int_sum_start(void* buf, std::size_t count,
                                 const Comm& comm, bool* done) {
  expects(comm.valid() && done != nullptr,
          "user_allreduce: invalid communicator or null done flag");
  const int size = comm.size();
  if ((size & (size - 1)) != 0) {
    // A non-power-of-two comm is outside Listing 1.8's shortcut; nothing
    // has been posted yet, so the caller can cleanly fall back to the
    // generalized user_allreduce() below.
    return Err::unsupported;
  }
  auto* p = new MyAllreduce();
  p->buf = static_cast<std::int32_t*>(buf);
  p->count = count;
  p->tmp_buf = new std::int32_t[count == 0 ? 1 : count];
  // Use the collective context so concurrent user p2p cannot interfere.
  p->comm = comm.coll_view();
  p->rank = comm.rank();
  p->size = size;
  p->mask = 1;
  p->tag = comm.next_coll_tag();
  *done = false;
  p->done_ptr = done;
  async_start(&my_allreduce_poll, p, comm.stream());
  return Err::success;
}

Err user_allreduce_int_sum(void* buf, std::size_t count, const Comm& comm) {
  bool done = false;
  const Err e = user_allreduce_int_sum_start(buf, count, comm, &done);
  if (e != Err::success) return e;
  progress_until(comm.stream(), [&done] { return done; });
  return Err::success;
}

Err user_allreduce(void* buf, std::size_t count, dtype::Datatype dt,
                   dtype::ReduceOp op, const Comm& comm) {
  expects(comm.valid() && (buf != nullptr || count == 0),
          "user_allreduce: invalid communicator or null buffer");
  if (!dt.valid() || !dt.is_contiguous()) return Err::unsupported;
  if (count == 0) return Err::success;
  // The compiler's non-power-of-two fold phases generalize Listing 1.8's
  // recursive doubling; repeated shapes are served from the comm's cache.
  // Under MPX_COLL_VERIFY a schedule set the static verifier rejects is a
  // runtime condition here, not a crash: nothing was posted (the gate runs
  // before the cache insert and before launch), so report it as a code.
  try {
    Request r = ir::iallreduce(in_place, buf, count, dt, op, comm);
    wait_on_stream(r, comm.stream());
  } catch (const ir::verify::ScheduleVerifyError&) {
    return Err::invalid_schedule;
  }
  return Err::success;
}

}  // namespace mpx::coll
