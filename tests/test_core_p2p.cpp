// Point-to-point protocol tests across both transports and all message
// modes (Fig. 1 of the paper): buffered/lightweight eager, eager with
// injection wait, rendezvous, and pipeline; plus blocking wrappers and the
// shared-memory LMT copy that both sides' progress shares.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "mpx/net/nic.hpp"
#include "test_util.hpp"

using namespace mpx;

namespace {

std::vector<std::int32_t> iota_vec(std::size_t n, std::int32_t start = 0) {
  std::vector<std::int32_t> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

}  // namespace

// --- shared-memory path ---

TEST(P2pShm, EagerSendCompletesAtInitiation) {
  auto w = World::create(WorldConfig{.nranks = 2});
  auto v = iota_vec(16);
  Comm c0 = w->comm_world(0);
  Request s = c0.isend(v.data(), v.size(), dtype::Datatype::int32(), 1, 5);
  // Buffered eager: complete before any receive is posted (Fig. 1a).
  EXPECT_TRUE(s.is_complete());

  std::vector<std::int32_t> r(16, -1);
  Comm c1 = w->comm_world(1);
  Status st = c1.recv(r.data(), r.size(), dtype::Datatype::int32(), 0, 5);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 5);
  EXPECT_EQ(st.count_bytes, 16u * 4u);
  EXPECT_EQ(r, v);
}

TEST(P2pShm, RendezvousLargeMessage) {
  WorldConfig cfg{.nranks = 2};
  cfg.shm_eager_max = 1024;  // force LMT
  auto w = World::create(cfg);
  const std::size_t n = 100'000;
  auto v = iota_vec(n);
  std::vector<std::int32_t> r(n, -1);

  Comm c0 = w->comm_world(0);
  Comm c1 = w->comm_world(1);
  Request sreq = c0.isend(v.data(), n, dtype::Datatype::int32(), 1, 1);
  // Rendezvous: cannot complete before the receiver matches and acks.
  EXPECT_FALSE(sreq.is_complete());

  Request rreq = c1.irecv(r.data(), n, dtype::Datatype::int32(), 0, 1);
  // Drive both sides' progress (single-threaded, deterministic).
  while (!sreq.is_complete() || !rreq.is_complete()) {
    stream_progress(w->null_stream(1));
    stream_progress(w->null_stream(0));
  }
  EXPECT_EQ(r, v);
  EXPECT_EQ(rreq.status().count_bytes, n * 4);
}

TEST(P2pShm, SenderBufferReusableAfterEagerComplete) {
  auto w = World::create(WorldConfig{.nranks = 2});
  auto v = iota_vec(8);
  Comm c0 = w->comm_world(0);
  Request s = c0.isend(v.data(), v.size(), dtype::Datatype::int32(), 1, 0);
  ASSERT_TRUE(s.is_complete());
  std::fill(v.begin(), v.end(), -7);  // clobber after completion: legal

  std::vector<std::int32_t> r(8);
  w->comm_world(1).recv(r.data(), 8, dtype::Datatype::int32(), 0, 0);
  EXPECT_EQ(r, iota_vec(8));  // payload was captured at send time
}

// --- simulated NIC path ---

TEST(P2pNet, LightweightSendIsBuffered) {
  auto w = World::create(mpx_test::net_only_config(2));
  std::int32_t x = 42;
  Request s = w->comm_world(0).isend(&x, 1, dtype::Datatype::int32(), 1, 3);
  EXPECT_TRUE(s.is_complete());  // <= net_lightweight_max

  std::int32_t y = 0;
  w->comm_world(1).recv(&y, 1, dtype::Datatype::int32(), 0, 3);
  EXPECT_EQ(y, 42);
}

TEST(P2pNet, EagerWaitsForInjection) {
  // Virtual clock: the injection CQ event exists at a known time and is only
  // observed via progress — exactly the paper's Fig. 1(b) wait block.
  auto w = World::create(mpx_test::virtual_net_config(2));
  const std::size_t n = 4096;  // > lightweight, <= eager_max
  auto v = iota_vec(n);
  Request s = w->comm_world(0).isend(v.data(), n, dtype::Datatype::int32(),
                                     1, 0);
  EXPECT_FALSE(s.is_complete());

  // Progress without advancing time: injection not done yet.
  stream_progress(w->null_stream(0));
  EXPECT_FALSE(s.is_complete());

  // Advance beyond the injection deadline; completion still needs a poll.
  w->virtual_clock()->advance(1.0);
  EXPECT_FALSE(s.is_complete());
  stream_progress(w->null_stream(0));
  EXPECT_TRUE(s.is_complete());

  std::vector<std::int32_t> r(n);
  Request rr = w->comm_world(1).irecv(r.data(), n, dtype::Datatype::int32(),
                                      0, 0);
  stream_progress(w->null_stream(1));
  ASSERT_TRUE(rr.is_complete());
  EXPECT_EQ(r, v);
}

TEST(P2pNet, RendezvousHandshake) {
  auto w = World::create(mpx_test::virtual_net_config(2));
  const std::size_t n = 64 * 1024;  // > net_eager_max in elements of int32
  auto v = iota_vec(n);
  std::vector<std::int32_t> r(n, 0);

  Request s = w->comm_world(0).isend(v.data(), n, dtype::Datatype::int32(),
                                     1, 9);
  Request rv = w->comm_world(1).irecv(r.data(), n, dtype::Datatype::int32(),
                                      0, 9);
  EXPECT_FALSE(s.is_complete());
  EXPECT_FALSE(rv.is_complete());

  // RTS -> CTS -> DATA each need time + polls on the right side.
  for (int step = 0; step < 16 && !(s.is_complete() && rv.is_complete());
       ++step) {
    w->virtual_clock()->advance(0.01);
    stream_progress(w->null_stream(1));  // receiver: RTS in, CTS out, data in
    stream_progress(w->null_stream(0));  // sender: CTS in, data out
  }
  ASSERT_TRUE(s.is_complete());
  ASSERT_TRUE(rv.is_complete());
  EXPECT_EQ(r, v);
}

TEST(P2pNet, PipelineChunksLargeMessage) {
  WorldConfig cfg = mpx_test::virtual_net_config(2);
  cfg.net_pipeline_min = 64 * 1024;
  cfg.net_pipeline_chunk = 16 * 1024;
  cfg.net_pipeline_inflight = 2;
  auto w = World::create(cfg);
  const std::size_t n = 128 * 1024;  // 512 KiB > pipeline_min
  auto v = iota_vec(n);
  std::vector<std::int32_t> r(n, 0);

  Request s = w->comm_world(0).isend(v.data(), n, dtype::Datatype::int32(),
                                     1, 2);
  Request rv = w->comm_world(1).irecv(r.data(), n, dtype::Datatype::int32(),
                                      0, 2);
  for (int step = 0; step < 200 && !(s.is_complete() && rv.is_complete());
       ++step) {
    w->virtual_clock()->advance(0.01);
    stream_progress(w->null_stream(0));
    stream_progress(w->null_stream(1));
  }
  ASSERT_TRUE(s.is_complete());
  ASSERT_TRUE(rv.is_complete());
  EXPECT_EQ(r, v);
  // The pipeline actually chunked: more than 2 messages crossed the wire.
  EXPECT_GT(mpx_test::transport_as<net::Nic>(*w, "nic").stats().delivered, 8u);
}

// --- concurrent ranks-on-threads smoke ---

TEST(P2pThreads, PingPongBothTransports) {
  for (int rpn : {2, 1}) {  // 2 = shm path, 1 = net path
    WorldConfig cfg{.nranks = 2};
    cfg.ranks_per_node = rpn;
    auto w = World::create(cfg);
    mpx_test::run_ranks(*w, [&](int rank) {
      Comm c = w->comm_world(rank);
      std::int64_t token = 0;
      for (int i = 0; i < 50; ++i) {
        if (rank == 0) {
          token = i;
          c.send(&token, 1, dtype::Datatype::int64(), 1, 11);
          c.recv(&token, 1, dtype::Datatype::int64(), 1, 12);
          ASSERT_EQ(token, i * 2);
        } else {
          c.recv(&token, 1, dtype::Datatype::int64(), 0, 11);
          token *= 2;
          c.send(&token, 1, dtype::Datatype::int64(), 0, 12);
        }
      }
      w->finalize_rank(rank);
    });
  }
}

TEST(P2pDatatype, NonContiguousVectorRoundTrip) {
  auto w = World::create(WorldConfig{.nranks = 2});
  // Send every other int of a 2N array.
  const int n = 1000;
  std::vector<std::int32_t> src(2 * n);
  std::iota(src.begin(), src.end(), 0);
  auto strided = dtype::Datatype::vector(n, 1, 2, dtype::Datatype::int32());

  Request s = w->comm_world(0).isend(src.data(), 1, strided, 1, 0);
  std::vector<std::int32_t> dst(n, -1);
  w->comm_world(1).recv(dst.data(), n, dtype::Datatype::int32(), 0, 0);
  ASSERT_TRUE(s.is_complete());
  for (int i = 0; i < n; ++i) EXPECT_EQ(dst[i], 2 * i) << i;
}

TEST(P2pDatatype, NonContiguousReceiveSide) {
  auto w = World::create(WorldConfig{.nranks = 2});
  const int n = 500;
  std::vector<std::int32_t> src(n);
  std::iota(src.begin(), src.end(), 100);
  std::vector<std::int32_t> dst(2 * n, -1);
  auto strided = dtype::Datatype::vector(n, 1, 2, dtype::Datatype::int32());

  Request s = w->comm_world(0).isend(src.data(), n,
                                     dtype::Datatype::int32(), 1, 0);
  w->comm_world(1).recv(dst.data(), 1, strided, 0, 0);
  ASSERT_TRUE(s.is_complete());
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(dst[2 * i], 100 + i);
    EXPECT_EQ(dst[2 * i + 1], -1);
  }
}

// --- shared-memory LMT: both sides' progress copies one rendezvous ---

namespace {

/// Two ranks on one node; anything above 1 KiB takes the LMT rendezvous,
/// whose copy both sides claim in `chunk`-byte pieces.
WorldConfig lmt_config(std::size_t chunk) {
  WorldConfig cfg{.nranks = 2};
  cfg.shm_eager_max = 1024;
  cfg.shm_lmt_chunk = chunk;
  return cfg;
}

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
  }
  return v;
}

World::StageCounter lmt_row(const World& w, int rank, int vci = 0) {
  for (World::StageCounter& row : w.vci_stage_table(rank, vci)) {
    if (row.name == "lmt") return row;
  }
  ADD_FAILURE() << "no lmt stage";
  return {};
}

/// Alternate the two ranks' progress until both requests complete.
void drive_both(World& w, const Request& s, const Request& r) {
  while (!s.is_complete() || !r.is_complete()) {
    stream_progress(w.null_stream(1));
    stream_progress(w.null_stream(0));
  }
}

/// Nothing is left on `rank`'s LMT queue: a poll of its idle VCI skips the
/// lmt stage, so the stage's call count does not move.
void expect_lmt_queue_empty(World& w, int rank) {
  const std::uint64_t before = lmt_row(w, rank).calls;
  stream_progress(w.null_stream(rank));
  EXPECT_EQ(lmt_row(w, rank).calls, before) << "rank " << rank;
}

const auto kByte = dtype::Datatype::byte();

}  // namespace

TEST(SharedLmt, ExactFitBothSidesCopy) {
  auto w = World::create(lmt_config(16 * 1024));
  const std::size_t n = 200'000;  // 13 chunks, the last one ragged
  const auto v = pattern(n);
  std::vector<std::uint8_t> r(n, 0);
  Request s = w->comm_world(0).isend(v.data(), n, kByte, 1, 1);
  Request rr = w->comm_world(1).irecv(r.data(), n, kByte, 0, 1);
  drive_both(*w, s, rr);
  EXPECT_EQ(r, v);
  EXPECT_EQ(rr.status().count_bytes, n);
  EXPECT_EQ(rr.status().error, Err::success);
  EXPECT_EQ(s.status().count_bytes, n);
  EXPECT_EQ(s.status().error, Err::success);
  EXPECT_GT(lmt_row(*w, 0).hits, 0u) << "the sender claimed no chunk";
  EXPECT_GT(lmt_row(*w, 1).hits, 0u) << "the receiver claimed no chunk";
  expect_lmt_queue_empty(*w, 0);
  expect_lmt_queue_empty(*w, 1);
}

TEST(SharedLmt, TruncatedCopyStopsAtCapacity) {
  auto w = World::create(lmt_config(16 * 1024));
  const std::size_t n = 200'000;
  const std::size_t cap = 150'001;  // inside a chunk, not on its edge
  const std::size_t guard = 64;
  const auto v = pattern(n);
  std::vector<std::uint8_t> r(cap + guard, 0xAB);
  Request s = w->comm_world(0).isend(v.data(), n, kByte, 1, 2);
  Request rr = w->comm_world(1).irecv(r.data(), cap, kByte, 0, 2);
  drive_both(*w, s, rr);
  EXPECT_EQ(rr.status().error, Err::truncate);
  EXPECT_EQ(rr.status().count_bytes, cap);
  EXPECT_TRUE(std::equal(r.begin(), r.begin() + cap, v.begin()));
  for (std::size_t i = cap; i < cap + guard; ++i) {
    ASSERT_EQ(r[i], 0xAB) << "guard byte " << i - cap << " overwritten";
  }
  EXPECT_EQ(s.status().error, Err::success);
  expect_lmt_queue_empty(*w, 0);
  expect_lmt_queue_empty(*w, 1);
}

TEST(SharedLmt, ZeroCountReceivesCopyAlone) {
  auto w = World::create(lmt_config(16 * 1024));
  // A zero-byte synchronous send still takes the rendezvous.
  Request s0 = w->comm_world(0).issend(nullptr, 0, kByte, 1, 3);
  Request r0 = w->comm_world(1).irecv(nullptr, 0, kByte, 0, 3);
  drive_both(*w, s0, r0);
  EXPECT_EQ(r0.status().error, Err::success);
  EXPECT_EQ(r0.status().count_bytes, 0u);
  // A zero-capacity receive of a large message truncates to nothing.
  const auto v = pattern(50'000);
  Request s1 = w->comm_world(0).isend(v.data(), v.size(), kByte, 1, 4);
  Request r1 = w->comm_world(1).irecv(nullptr, 0, kByte, 0, 4);
  drive_both(*w, s1, r1);
  EXPECT_EQ(r1.status().error, Err::truncate);
  EXPECT_EQ(r1.status().count_bytes, 0u);
  EXPECT_EQ(s1.status().error, Err::success);
  EXPECT_EQ(lmt_row(*w, 0).hits, 0u) << "nothing was published to claim";
  expect_lmt_queue_empty(*w, 0);
  expect_lmt_queue_empty(*w, 1);
}

TEST(SharedLmt, NonContiguousReceiverCopiesAlone) {
  auto w = World::create(lmt_config(4 * 1024));
  const int n = 20'000;
  std::vector<std::int32_t> src(n);
  std::iota(src.begin(), src.end(), 7);
  std::vector<std::int32_t> dst(2 * n, -1);
  auto strided = dtype::Datatype::vector(n, 1, 2, dtype::Datatype::int32());
  Request s = w->comm_world(0).isend(src.data(), n, dtype::Datatype::int32(),
                                     1, 5);
  Request rr = w->comm_world(1).irecv(dst.data(), 1, strided, 0, 5);
  drive_both(*w, s, rr);
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(dst[2 * i], 7 + i) << i;
    ASSERT_EQ(dst[2 * i + 1], -1) << i;
  }
  EXPECT_EQ(rr.status().count_bytes, n * sizeof(std::int32_t));
  EXPECT_EQ(rr.status().error, Err::success);
  const World::StageCounter sender = lmt_row(*w, 0);
  EXPECT_GT(sender.calls, 0u) << "the send was never queued";
  EXPECT_EQ(sender.hits, 0u) << "the sender copied into a strided buffer";
  expect_lmt_queue_empty(*w, 0);  // retired by the ACK
  expect_lmt_queue_empty(*w, 1);
}

TEST(SharedLmt, UnexpectedRtsIsShared) {
  auto w = World::create(lmt_config(16 * 1024));
  const std::size_t n = 100'000;
  const auto v = pattern(n);
  std::vector<std::uint8_t> r(n, 0);
  Comm c1 = w->comm_world(1);
  Request s = w->comm_world(0).isend(v.data(), n, kByte, 1, 6);
  // The RTS arrives (and parks as unexpected) before the receive is posted.
  while (!c1.iprobe(0, 6).has_value()) {
  }
  Request rr = c1.irecv(r.data(), n, kByte, 0, 6);
  drive_both(*w, s, rr);
  EXPECT_EQ(r, v);
  EXPECT_EQ(rr.status().count_bytes, n);
  EXPECT_EQ(rr.status().error, Err::success);
  EXPECT_GT(lmt_row(*w, 0).hits, 0u) << "the sender claimed no chunk";
  expect_lmt_queue_empty(*w, 0);
  expect_lmt_queue_empty(*w, 1);
}

TEST(SharedLmt, ReceiverCopiesEverythingWhenSenderNeverPolls) {
  auto w = World::create(lmt_config(16 * 1024));
  const std::size_t n = 100'000;
  const auto v = pattern(n);
  std::vector<std::uint8_t> r(n, 0);
  Request s = w->comm_world(0).isend(v.data(), n, kByte, 1, 7);
  Request rr = w->comm_world(1).irecv(r.data(), n, kByte, 0, 7);
  while (!rr.is_complete()) stream_progress(w->null_stream(1));
  EXPECT_EQ(r, v);
  EXPECT_EQ(rr.status().count_bytes, n);
  EXPECT_EQ(lmt_row(*w, 0).calls, 0u);
  // The ACK is waiting for the sender's first poll.
  EXPECT_FALSE(s.is_complete());
  EXPECT_EQ(s.wait().error, Err::success);
  EXPECT_EQ(lmt_row(*w, 0).hits, 0u);
  expect_lmt_queue_empty(*w, 0);
}

TEST(SharedLmt, SenderWaitCopiesChunks) {
  auto w = World::create(lmt_config(16 * 1024));
  const std::size_t n = 1 << 20;  // 64 chunks
  const auto v = pattern(n);
  std::vector<std::uint8_t> r(n, 0);
  Request s = w->comm_world(0).isend(v.data(), n, kByte, 1, 8);
  Request rr = w->comm_world(1).irecv(r.data(), n, kByte, 0, 8);
  // Match the RTS: the receiver's entry is queued (and its buffer
  // published) once its lmt stage has been called.
  while (lmt_row(*w, 1).calls == 0) stream_progress(w->null_stream(1));
  Status ss;
  std::thread sender([&] { ss = s.wait(); });
  // Hold the receiver back until the sender's wait has copied a chunk.
  while (lmt_row(*w, 0).hits == 0) std::this_thread::yield();
  const Status rs = rr.wait();
  sender.join();
  EXPECT_EQ(r, v);
  EXPECT_EQ(rs.count_bytes, n);
  EXPECT_EQ(rs.error, Err::success);
  EXPECT_EQ(ss.error, Err::success);
  EXPECT_GT(lmt_row(*w, 0).hits, 0u);
  expect_lmt_queue_empty(*w, 0);
  expect_lmt_queue_empty(*w, 1);
}

TEST(SharedLmt, StreamFreeRightAfterWait) {
  // The sender's LMT entry must be gone the moment its wait returns:
  // stream_free refuses a stream with anything left on its LMT queue.
  WorldConfig cfg = lmt_config(1024);
  // Room for every stream a refused free leaves behind: a failure is
  // counted instead of exhausting the VCI table and stranding the peer in
  // the next (collective) with_stream.
  cfg.max_vcis = 1024;
  auto w = World::create(cfg);
  const std::size_t n = 4096;
  const auto v = pattern(n);
  std::atomic<int> refused{0};
  mpx_test::run_ranks(*w, [&](int rank) {
    std::vector<std::uint8_t> r(n);
    for (int i = 0; i < 1000; ++i) {
      Stream st = w->stream_create(rank);
      Comm c = w->comm_world(rank).with_stream(st);
      if (rank == 0) {
        Request s = c.isend(v.data(), n, kByte, 1, 9);
        EXPECT_EQ(s.wait().error, Err::success);
      } else {
        Request rr = c.irecv(r.data(), n, kByte, 0, 9);
        EXPECT_EQ(rr.wait().count_bytes, n);
        EXPECT_EQ(r, v);
      }
      try {
        w->stream_free(st);
      } catch (const UsageError&) {
        refused.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(refused.load(), 0) << "stream_free found work left after wait()";
}
