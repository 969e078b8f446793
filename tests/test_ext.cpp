// Continuations (MPIX_Continue analog) and round schedules (MPIX_Schedule
// analog) — the related-work comparison layers of §5.3/§5.4.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "mpx/ext/continue.hpp"
#include "mpx/ext/schedule.hpp"
#include "test_util.hpp"

using namespace mpx;

namespace {

struct CbRecord {
  std::atomic<int> fired{0};
  std::atomic<std::uint64_t> bytes{0};
};

void record_cb(const Status& st, void* data) {
  auto* r = static_cast<CbRecord*>(data);
  r->fired.fetch_add(1);
  r->bytes.fetch_add(st.count_bytes);
}

}  // namespace

TEST(Continue, CallbackFiresInsideProgressOnCompletion) {
  auto w = World::create(WorldConfig{.nranks = 2});
  Stream s1 = w->null_stream(1);
  Request cont = ext::continue_init(*w, s1);
  CbRecord rec;

  std::int32_t buf = 0;
  Request rr = w->comm_world(1).irecv(&buf, 1, dtype::Datatype::int32(), 0, 0);
  ext::continue_attach(rr, &record_cb, &rec, cont);
  ext::continue_ready(cont);
  EXPECT_EQ(rec.fired.load(), 0);

  std::int32_t v = 55;
  w->comm_world(0).isend(&v, 1, dtype::Datatype::int32(), 1, 0);
  while (!cont.is_complete()) stream_progress(s1);
  EXPECT_EQ(rec.fired.load(), 1);
  EXPECT_EQ(rec.bytes.load(), 4u);
  EXPECT_EQ(buf, 55);
}

TEST(Continue, AttachToAlreadyCompleteFiresImmediately) {
  auto w = World::create(WorldConfig{.nranks = 2});
  std::int32_t v = 1;
  Request sr = w->comm_world(0).isend(&v, 1, dtype::Datatype::int32(), 1, 0);
  ASSERT_TRUE(sr.is_complete());  // buffered eager

  Request cont = ext::continue_init(*w, w->null_stream(0));
  CbRecord rec;
  ext::continue_attach(sr, &record_cb, &rec, cont);
  EXPECT_EQ(rec.fired.load(), 1);  // fired inline
  ext::continue_ready(cont);
  EXPECT_TRUE(cont.is_complete());

  std::int32_t sink = 0;
  w->comm_world(1).recv(&sink, 1, dtype::Datatype::int32(), 0, 0);
}

TEST(Continue, AttachAllAggregatesCompletions) {
  auto w = World::create(WorldConfig{.nranks = 2});
  constexpr int kN = 16;
  std::vector<std::int32_t> out(kN, 0);
  std::vector<Request> reqs;
  Comm c1 = w->comm_world(1);
  for (int i = 0; i < kN; ++i) {
    reqs.push_back(c1.irecv(&out[static_cast<std::size_t>(i)], 1,
                            dtype::Datatype::int32(), 0, i));
  }
  Request cont = ext::continue_init(*w, w->null_stream(1));
  CbRecord rec;
  ext::continue_attach_all(reqs, &record_cb, &rec, cont);

  Comm c0 = w->comm_world(0);
  for (std::int32_t i = 0; i < kN; ++i) {
    c0.isend(&i, 1, dtype::Datatype::int32(), 1, i);
  }
  while (!cont.is_complete()) stream_progress(w->null_stream(1));
  EXPECT_EQ(rec.fired.load(), kN);
  for (int i = 0; i < kN; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(Schedule, RoundsGateLocalOps) {
  // Two rounds: reduce must not run until the round's request completed.
  WorldConfig cfg{.nranks = 2};
  cfg.use_virtual_clock = true;
  cfg.ranks_per_node = 1;  // NIC: arrival needs time + polls
  auto w = World::create(cfg);

  std::int32_t acc = 1, incoming = 0;
  Request rr = w->comm_world(1).irecv(&incoming, 1, dtype::Datatype::int32(),
                                      0, 0);
  auto sched = std::make_unique<ext::Schedule>(*w, w->null_stream(1));
  sched->add_operation(rr);
  sched->add_mpi_operation(dtype::ReduceOp::sum, &incoming, &acc, 1,
                           dtype::Datatype::int32());
  Request handle = ext::Schedule::commit(std::move(sched));

  stream_progress(w->null_stream(1));
  EXPECT_FALSE(handle.is_complete());
  EXPECT_EQ(acc, 1);  // local op gated by the pending request

  std::int32_t v = 41;
  w->comm_world(0).isend(&v, 1, dtype::Datatype::int32(), 1, 0);
  w->virtual_clock()->advance(1.0);
  while (!handle.is_complete()) stream_progress(w->null_stream(1));
  EXPECT_EQ(acc, 42);
}

TEST(Schedule, CompletionPointBeforeLastRound) {
  auto w = World::create(WorldConfig{.nranks = 1});
  std::atomic<int> late_round_ran{0};
  std::int32_t a = 5, b = 10;

  auto sched = std::make_unique<ext::Schedule>(*w, w->null_stream(0));
  sched->add_mpi_operation(dtype::ReduceOp::sum, &a, &b, 1,
                           dtype::Datatype::int32());
  sched->mark_completion_point();  // handle completes after THIS round
  sched->create_round();
  sched->add_mpi_operation(dtype::ReduceOp::sum, &a, &b, 1,
                           dtype::Datatype::int32());
  Request handle = ext::Schedule::commit(std::move(sched));
  (void)late_round_ran;

  while (!handle.is_complete()) stream_progress(w->null_stream(0));
  // Both rounds ran to completion even though the handle completed early.
  w->finalize_rank(0);
  EXPECT_EQ(b, 20);
}

TEST(Schedule, PendingScheduleFreedAtTeardown) {
  // A schedule gated on a receive that never matches is still registered
  // when the World goes away; teardown must free it (the leak check of the
  // sanitizer build catches a schedule nobody deletes).
  auto w = World::create(WorldConfig{.nranks = 2});
  std::int32_t never = 0;
  Request rr =
      w->comm_world(1).irecv(&never, 1, dtype::Datatype::int32(), 0, 0);
  auto sched = std::make_unique<ext::Schedule>(*w, w->null_stream(1));
  sched->add_operation(rr);
  Request handle = ext::Schedule::commit(std::move(sched));

  stream_progress(w->null_stream(1));
  EXPECT_FALSE(handle.is_complete());
}
