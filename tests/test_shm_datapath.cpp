// Shm eager datapath tests: the zero-copy inline-cell ring end to end.
//
// Covers the PR's acceptance assertions directly:
//  - zero per-message heap allocations on the in-slot eager path (pool and
//    transport stats counters, not heap hooks);
//  - randomized property test interleaving full-ring parking, wildcard
//    receives, and LMT cutover, asserting FIFO per (src, dst, vci) channel
//    (single-threaded deterministic interleave + a two-thread variant that
//    exercises the wait backoff ladder under tsan).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "mpx/base/pool.hpp"
#include "mpx/core/topology.hpp"
#include "mpx/net/nic.hpp"
#include "mpx/shm/shm_transport.hpp"
#include "test_util.hpp"

using namespace mpx;

namespace {

std::vector<std::uint8_t> pattern(int seq, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t j = 0; j < n; ++j) {
    v[j] = static_cast<std::uint8_t>(seq * 131 + static_cast<int>(j) * 7 + 1);
  }
  return v;
}

}  // namespace

// In-slot eager traffic (payload <= slot_bytes) with a matching posted
// receive must not touch the payload pool at all: the payload goes user
// buffer -> ring slot -> user buffer. ShmStats::inline_payload_hits counts
// every send as in-slot and the PayloadPool acquire counters stay flat.
TEST(ShmDatapath, InSlotEagerMakesZeroPayloadAllocations) {
  auto w = World::create(WorldConfig{.nranks = 2});
  Comm c0 = w->comm_world(0);
  Comm c1 = w->comm_world(1);
  constexpr int kN = 64;
  constexpr std::size_t kBytes = 128;  // <= default slot_bytes (256)

  const shm::ShmStats shm0 = mpx_test::transport_as<shm::ShmTransport>(*w, "shm").stats();
  const base::PoolStats pay0 = base::PayloadPool::instance().stats();

  std::vector<std::vector<std::uint8_t>> recv_bufs(
      kN, std::vector<std::uint8_t>(kBytes, 0));
  std::vector<Request> rreqs;
  rreqs.reserve(kN);
  for (int i = 0; i < kN; ++i) {  // pre-post: every arrival finds a match
    rreqs.push_back(c1.irecv(recv_bufs[static_cast<std::size_t>(i)].data(),
                             kBytes, dtype::Datatype::byte(), 0, i));
  }
  for (int i = 0; i < kN; ++i) {
    auto v = pattern(i, kBytes);
    Request s = c0.isend(v.data(), kBytes, dtype::Datatype::byte(), 1, i);
    EXPECT_TRUE(s.is_complete());  // eager: locally complete at initiation
    // Drain each message promptly so the default 64-cell ring never fills
    // (a full ring legitimately parks + pool-copies).
    rreqs[static_cast<std::size_t>(i)].wait();
  }

  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(recv_bufs[static_cast<std::size_t>(i)],
              pattern(i, kBytes));
  }

  const shm::ShmStats shm1 = mpx_test::transport_as<shm::ShmTransport>(*w, "shm").stats();
  const base::PoolStats pay1 = base::PayloadPool::instance().stats();
  EXPECT_EQ(shm1.sends - shm0.sends, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(shm1.inline_payload_hits - shm0.inline_payload_hits,
            static_cast<std::uint64_t>(kN));
  EXPECT_EQ(shm1.ring_full_events - shm0.ring_full_events, 0u);
  // The heart of the claim: no payload-pool acquires — neither recycled
  // blocks nor fresh allocations — anywhere on the in-slot path.
  EXPECT_EQ(pay1.hits - pay0.hits, 0u);
  EXPECT_EQ(pay1.misses - pay0.misses, 0u);
}

TEST(ShmDatapath, BatchedDeliveryCountersSurfaceThroughWorldStats) {
  auto w = World::create(WorldConfig{.nranks = 2});
  Comm c0 = w->comm_world(0);
  Comm c1 = w->comm_world(1);
  constexpr int kN = 8;
  const shm::ShmStats before = mpx_test::transport_as<shm::ShmTransport>(*w, "shm").stats();

  std::vector<std::uint8_t> v(64, 0xab);
  for (int i = 0; i < kN; ++i) {
    c0.isend(v.data(), v.size(), dtype::Datatype::byte(), 1, i);
  }
  // One receiver progress pass drains all kN cells (deliver_batch=16)
  // from one channel -> one batched delivery.
  std::vector<std::uint8_t> r(64, 0);
  for (int i = 0; i < kN; ++i) {
    c1.recv(r.data(), r.size(), dtype::Datatype::byte(), 0, i);
  }
  const shm::ShmStats after = mpx_test::transport_as<shm::ShmTransport>(*w, "shm").stats();
  EXPECT_EQ(after.delivered - before.delivered, static_cast<std::uint64_t>(kN));
  EXPECT_GE(after.batched_deliveries - before.batched_deliveries, 1u);
}

// Randomized property test, single-threaded deterministic interleave.
//
// One directed channel (0 -> 1, vci 0) under a tiny 4-cell ring so sends
// park constantly; sizes cross all three modes (in-slot, pooled overflow,
// LMT rendezvous above shm_eager_max); receives are a random mix of exact
// and wildcard (any_source / any_tag). Non-overtaking per channel says
// receive #i — posted in order — must match message #i: its status tag,
// byte count, and payload pattern must all be message i's.
TEST(ShmDatapath, RandomizedFifoAcrossParkingWildcardsAndLmtCutover) {
  WorldConfig cfg{.nranks = 2};
  cfg.shm_cells = 4;
  cfg.shm_eager_max = 1024;  // LMT cutover within reach of the size mix
  auto w = World::create(cfg);
  Comm c0 = w->comm_world(0);
  Comm c1 = w->comm_world(1);

  constexpr int kMsgs = 200;
  const std::size_t sizes[] = {0, 8, 200, 256, 257, 600, 1024, 1025, 5000};
  std::mt19937 rng = mpx_test::rank_rng(/*salt=*/0x5470, 0);

  std::vector<std::vector<std::uint8_t>> send_bufs(kMsgs);
  std::vector<std::vector<std::uint8_t>> recv_bufs(kMsgs);
  std::vector<Request> sreqs;
  std::vector<Request> rreqs;
  sreqs.reserve(kMsgs);
  rreqs.reserve(kMsgs);
  int sent = 0;
  int posted = 0;

  while (sent < kMsgs || posted < kMsgs) {
    const int action = static_cast<int>(rng() % 4);
    if (action == 0 && sent < kMsgs) {
      const std::size_t n = sizes[rng() % std::size(sizes)];
      send_bufs[static_cast<std::size_t>(sent)] = pattern(sent, n);
      sreqs.push_back(c0.isend(send_bufs[static_cast<std::size_t>(sent)].data(),
                               n, dtype::Datatype::byte(), 1, sent));
      ++sent;
    } else if (action == 1 && posted < kMsgs) {
      // Receives may be posted ahead of their message or after it parked
      // unexpectedly; wildcards must still match in channel-FIFO order.
      recv_bufs[static_cast<std::size_t>(posted)].assign(8192, 0);
      const int src = (rng() % 2 == 0) ? 0 : any_source;
      const int tag = (rng() % 2 == 0) ? posted : any_tag;
      rreqs.push_back(
          c1.irecv(recv_bufs[static_cast<std::size_t>(posted)].data(), 8192,
                   dtype::Datatype::byte(), src, tag));
      ++posted;
    } else if (action == 2) {
      stream_progress(w->null_stream(0));
    } else {
      stream_progress(w->null_stream(1));
    }
  }

  for (;;) {
    bool all = true;
    for (Request& r : rreqs) all = all && r.is_complete();
    for (Request& r : sreqs) all = all && r.is_complete();
    if (all) break;
    stream_progress(w->null_stream(0));
    stream_progress(w->null_stream(1));
  }

  for (int i = 0; i < kMsgs; ++i) {
    const Status st = rreqs[static_cast<std::size_t>(i)].status();
    EXPECT_EQ(st.source, 0);
    EXPECT_EQ(st.tag, i) << "receive " << i << " matched out of FIFO order";
    const std::size_t n = send_bufs[static_cast<std::size_t>(i)].size();
    ASSERT_EQ(st.count_bytes, n);
    EXPECT_TRUE(n == 0 ||
                std::memcmp(recv_bufs[static_cast<std::size_t>(i)].data(),
                            send_bufs[static_cast<std::size_t>(i)].data(),
                            n) == 0)
        << "payload of message " << i << " corrupted";
  }
  EXPECT_GT(mpx_test::transport_as<shm::ShmTransport>(*w, "shm").stats().ring_full_events, 0u)
      << "size the ring down: the scenario must actually exercise parking";
}

// Two-thread variant: sender and receiver ranks run concurrently, so the
// blocking waits go through the spin -> yield -> sleep backoff ladder while
// parked sends are flushed by the sender's own progress. tsan coverage for
// the ring protocol + backoff interplay.
TEST(ShmDatapath, ThreadedSenderReceiverFifoUnderParking) {
  WorldConfig cfg{.nranks = 2};
  cfg.shm_cells = 4;
  cfg.shm_eager_max = 1024;
  cfg.wait_spin = 8;  // reach the yield/sleep phases quickly
  cfg.wait_yield = 4;
  auto w = World::create(cfg);

  constexpr int kMsgs = 120;
  const std::size_t sizes[] = {8, 256, 600, 2048};

  mpx_test::run_ranks(*w, [&](int rank) {
    std::mt19937 rng = mpx_test::rank_rng(/*salt=*/0x5471, 0);  // shared seq
    if (rank == 0) {
      Comm c = w->comm_world(0);
      std::vector<Request> reqs;
      std::vector<std::vector<std::uint8_t>> bufs(kMsgs);
      for (int i = 0; i < kMsgs; ++i) {
        const std::size_t n = sizes[rng() % std::size(sizes)];
        bufs[static_cast<std::size_t>(i)] = pattern(i, n);
        reqs.push_back(c.isend(bufs[static_cast<std::size_t>(i)].data(), n,
                               dtype::Datatype::byte(), 1, i));
      }
      wait_all(reqs);
    } else {
      Comm c = w->comm_world(1);
      std::vector<std::uint8_t> buf(8192);
      for (int i = 0; i < kMsgs; ++i) {
        const std::size_t n = sizes[rng() % std::size(sizes)];
        std::fill(buf.begin(), buf.end(), 0);
        const Status st = c.recv(buf.data(), buf.size(),
                                 dtype::Datatype::byte(), any_source, any_tag);
        EXPECT_EQ(st.tag, i);  // channel FIFO, even via full wildcards
        ASSERT_EQ(st.count_bytes, n);
        EXPECT_TRUE(std::memcmp(buf.data(), pattern(i, n).data(), n) == 0);
      }
    }
  });
}

namespace {

// 3 sender ranks, one thread each, blocking-send kPerSender 64 B messages
// to rank 0, which receives them all with any_source on its own thread.
void fan_in(World& w, int per_sender) {
  constexpr int kSenders = 3;
  std::atomic<bool> received{false};
  std::vector<std::thread> ts;
  for (int src = 1; src <= kSenders; ++src) {
    ts.emplace_back([&w, &received, src, per_sender] {
      Comm c = w.comm_world(src);
      for (int i = 0; i < per_sender; ++i) {
        const auto v = pattern(i, 64);
        c.send(v.data(), v.size(), dtype::Datatype::byte(), 0, src);
      }
      // Eager sends complete at initiation even when they park behind a
      // full ring; only this rank's progress flushes them.
      while (!received.load(std::memory_order_acquire)) {
        stream_progress(w.null_stream(src));
      }
    });
  }
  ts.emplace_back([&w, &received, per_sender] {
    Comm c = w.comm_world(0);
    std::vector<int> next(kSenders + 1, 0);
    std::vector<std::uint8_t> buf(64);
    for (int i = 0; i < kSenders * per_sender; ++i) {
      const Status st = c.recv(buf.data(), buf.size(),
                               dtype::Datatype::byte(), any_source, any_tag);
      // Per-pair FIFO: each sender's messages arrive in send order.
      EXPECT_EQ(buf, pattern(next[static_cast<std::size_t>(st.source)]++, 64));
    }
    received.store(true, std::memory_order_release);
  });
  for (auto& t : ts) t.join();
}

}  // namespace

// Per-endpoint transport counters and the split sent/recvd pair counters
// stay exact under concurrent senders: at quiescence every sent message
// was delivered, and every pair reads zero in flight.
TEST(ShmDatapath, FanInCountersExactAndPairsDrain) {
  constexpr int kPerSender = 2000;
  constexpr std::uint64_t kTotal = 3 * kPerSender;
  {
    auto w = World::create(WorldConfig{.nranks = 4});
    auto& shm = mpx_test::transport_as<shm::ShmTransport>(*w, "shm");
    const shm::ShmStats s0 = shm.stats();
    fan_in(*w, kPerSender);
    const shm::ShmStats s1 = shm.stats();
    EXPECT_EQ(s1.sends - s0.sends, kTotal);
    EXPECT_EQ(s1.delivered - s0.delivered, kTotal);
    EXPECT_EQ(s1.inline_payload_hits - s0.inline_payload_hits, kTotal);
    const core_detail::TopologySnapshot& topo = *w->topology().acquire();
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) EXPECT_EQ(topo.inflight(a, b), 0);
    }
  }
  {
    // One rank per node: all traffic on the simulated NIC.
    auto w = World::create(WorldConfig{.nranks = 4, .ranks_per_node = 1});
    auto& nic = mpx_test::transport_as<net::Nic>(*w, "nic");
    const net::NicStats n0 = nic.stats();
    fan_in(*w, kPerSender);
    const net::NicStats n1 = nic.stats();
    EXPECT_EQ(n1.injected - n0.injected, kTotal);
    EXPECT_EQ(n1.delivered - n0.delivered, kTotal);
    const core_detail::TopologySnapshot& topo = *w->topology().acquire();
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) EXPECT_EQ(topo.inflight(a, b), 0);
    }
  }
}

namespace {

// Records every arrival with the path it took (inline view or owned Msg).
struct HeaderSink final : transport::TransportSink {
  struct Arrival {
    transport::MsgHeader h;
    std::vector<std::byte> payload;
    bool inline_view = false;
  };
  std::vector<Arrival> got;
  void on_msg(transport::Msg&& m) override {
    const base::ConstByteSpan p = m.payload.span();
    got.push_back({m.h, {p.begin(), p.end()}, false});
  }
  void on_msg_inline(const transport::MsgHeader& h,
                     base::ConstByteSpan p) override {
    got.push_back({h, {p.begin(), p.end()}, true});
  }
  void on_send_complete(std::uint64_t) override {}
};

std::vector<std::byte> bytes(int seed, std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t j = 0; j < n; ++j) {
    v[j] = static_cast<std::byte>(seed * 37 + static_cast<int>(j) * 11 + 3);
  }
  return v;
}

void expect_same_header(const transport::MsgHeader& a,
                        const transport::MsgHeader& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.src_rank, b.src_rank);
  EXPECT_EQ(a.dst_rank, b.dst_rank);
  EXPECT_EQ(a.src_vci, b.src_vci);
  EXPECT_EQ(a.dst_vci, b.dst_vci);
  EXPECT_EQ(a.context_id, b.context_id);
  EXPECT_EQ(a.tag, b.tag);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.chunk_offset, b.chunk_offset);
  EXPECT_EQ(a.sender_cookie, b.sender_cookie);
  EXPECT_EQ(a.recver_cookie, b.recver_cookie);
  EXPECT_EQ(a.shm_src, b.shm_src);
}

}  // namespace

// A ring cell splits its header into a hot part on the cell's first line
// and a cold record read only when needed, and the receiver rebuilds
// dst_rank/dst_vci from the polled channel. One cell of every kind must
// still arrive with every MsgHeader field and payload byte unchanged.
TEST(ShmDatapath, EveryHeaderFieldRoundTrips) {
  shm::ShmTransport t(/*nranks=*/3, /*max_vcis=*/3, /*cells=*/16);
  ASSERT_EQ(t.slot_bytes(), 280u);  // default in-slot capacity

  const int exporters[2] = {0, 0};  // distinct shm_src addresses
  struct Case {
    const char* name;
    transport::MsgHeader h;
    std::vector<std::byte> payload;
    bool eager_api;    // send_eager (copies the payload) or send (owned Msg)
    bool expect_inline;
  };
  const auto header = [](transport::MsgKind kind, int seed) {
    transport::MsgHeader h;
    h.kind = kind;
    h.src_rank = 2;
    h.dst_rank = 1;
    h.src_vci = 1;
    h.dst_vci = 2;
    h.context_id = 0x5a5a0000 + seed;
    h.tag = -7 - seed;  // negative tags must survive too
    h.total_bytes = 0x1'0000'0000ull + static_cast<std::uint64_t>(seed);
    return h;
  };
  std::vector<Case> cases;
  {
    Case c{"eager in-slot", header(transport::MsgKind::eager, 1),
           bytes(1, 200), true, true};
    c.h.total_bytes = 200;
    cases.push_back(c);
  }
  {
    Case c{"eager overflow", header(transport::MsgKind::eager, 2),
           bytes(2, 1000), true, false};
    c.h.total_bytes = 1000;
    cases.push_back(c);
  }
  {
    Case c{"eager in-slot with cookie", header(transport::MsgKind::eager, 3),
           bytes(3, 24), true, true};
    c.h.sender_cookie = 0xfeedface'00000003ull;
    cases.push_back(c);
  }
  {
    Case c{"rts", header(transport::MsgKind::rts, 4), {}, false, true};
    c.h.shm_src = &exporters[0];
    c.h.sender_cookie = 0xabcdef01'23456789ull;
    cases.push_back(c);
  }
  {
    // Each cold field also travels alone (here, the exporter address).
    Case c{"rts, exporter only", header(transport::MsgKind::rts, 9), {},
           false, true};
    c.h.shm_src = &exporters[1];
    cases.push_back(c);
  }
  {
    Case c{"cts", header(transport::MsgKind::cts, 5), {}, false, true};
    c.h.sender_cookie = 0x1111'2222'3333'4444ull;
    c.h.recver_cookie = 0x5555'6666'7777'8888ull;
    cases.push_back(c);
  }
  {
    Case c{"cts, receiver cookie only", header(transport::MsgKind::cts, 10),
           {}, false, true};
    c.h.recver_cookie = 0x0000'0000'0000'0001ull;
    cases.push_back(c);
  }
  {
    Case c{"data in-slot", header(transport::MsgKind::data, 6), bytes(6, 64),
           false, true};
    c.h.chunk_offset = 0x2'0000'0040ull;
    cases.push_back(c);
  }
  {
    Case c{"data overflow", header(transport::MsgKind::data, 7),
           bytes(7, 4096), false, false};
    c.h.chunk_offset = 8192;
    c.h.recver_cookie = 0x0ddba11ull;
    cases.push_back(c);
  }
  {
    Case c{"ack", header(transport::MsgKind::ack, 8), {}, false, true};
    c.h.sender_cookie = 0x00c0ffee'00000008ull;
    cases.push_back(c);
  }

  // Three rounds over a 16-cell ring, rotated so that a cell reused on a
  // later lap held a different kind before: a plain eager cell must not
  // pick up the cold fields an earlier control cell left in its record.
  for (std::size_t round = 0; round < 3; ++round) {
    std::vector<const Case*> order;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      order.push_back(&cases[(i + 3 * round) % cases.size()]);
    }
    for (const Case* c : order) {
      const base::ConstByteSpan p(c->payload.data(), c->payload.size());
      if (c->eager_api) {
        ASSERT_TRUE(t.send_eager(c->h, p, 0)) << c->name;
      } else {
        transport::Msg m;
        m.h = c->h;
        m.payload = base::Buffer::copy_of(p);
        ASSERT_TRUE(t.send(std::move(m), 0)) << c->name;
      }
    }
    HeaderSink sink;
    t.poll(0, 2, sink, nullptr);  // the wrong endpoint sees nothing
    EXPECT_TRUE(sink.got.empty());
    t.poll(1, 2, sink, nullptr);
    ASSERT_EQ(sink.got.size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      SCOPED_TRACE(std::string(order[i]->name) + ", round " +
                   std::to_string(round));
      expect_same_header(sink.got[i].h, order[i]->h);
      EXPECT_EQ(sink.got[i].payload, order[i]->payload);
      EXPECT_EQ(sink.got[i].inline_view, order[i]->expect_inline);
    }
    EXPECT_TRUE(t.idle(1, 2));
  }
}
