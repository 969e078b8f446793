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
  // under a single acquire/publish pair -> one batched delivery.
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
