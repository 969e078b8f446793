// Continuations (MPIX_Continue analog) — the related-work comparison layer
// of §5.4.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "mpx/ext/continue.hpp"
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

