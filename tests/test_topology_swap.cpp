// Live topology-swap tests: core_detail::swap_topology_for_test (the
// test-internal hook in src/core/test_hooks.hpp) re-routes a rank pair
// shm <-> nic mid-traffic and not one message may be lost, duplicated,
// or reordered. The functional tests pin down the observable contract
// (delivery, FIFO, epoch accounting, route table); the threaded stress
// test hammers bidirectional sequenced traffic on 4 ranks while a control
// thread swaps the hot pair every few hundred messages — the tsan preset
// runs this to check the publication protocol's ordering claims
// (topology.hpp) against the real memory model.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "mpx/base/thread.hpp"
#include "mpx/mpx.hpp"
#include "src/core/test_hooks.hpp"
#include "test_util.hpp"

using namespace mpx;

namespace {

/// Two nodes of two ranks: pair (0,1) is same-node (routes shm first-match)
/// and nic reaches everything, so the pair is swappable in both directions.
WorldConfig two_node_config() {
  WorldConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 2;
  return cfg;
}

}  // namespace

TEST(TopologySwap, EpochAndRouteAccounting) {
  auto w = World::create(two_node_config());
  transport::Transport* shm = w->find_transport("shm");
  transport::Transport* nic = w->find_transport("nic");
  ASSERT_NE(shm, nullptr);
  ASSERT_NE(nic, nullptr);

  EXPECT_EQ(w->topology_epoch(), 1u);  // construction-time snapshot
  EXPECT_EQ(&w->route(0, 1), shm);     // same-node: shm wins first-match

  // Each swap publishes twice: fence, then cutover.
  core_detail::swap_topology_for_test(*w, 0, 1, *nic);
  EXPECT_EQ(w->topology_epoch(), 3u);
  EXPECT_EQ(&w->route(0, 1), nic);
  EXPECT_EQ(&w->route(1, 0), nic);
  EXPECT_EQ(&w->route(2, 3), shm) << "untouched pairs keep their carrier";
  EXPECT_EQ(&w->route(0, 2), nic);

  core_detail::swap_topology_for_test(*w, 0, 1, *shm);
  EXPECT_EQ(w->topology_epoch(), 5u);
  EXPECT_EQ(&w->route(0, 1), shm);
  for (int r = 0; r < 4; ++r) w->finalize_rank(r);
}

TEST(TopologySwap, MidTrafficSwapLosesNothing) {
  auto w = World::create(two_node_config());
  transport::Transport* shm = w->find_transport("shm");
  transport::Transport* nic = w->find_transport("nic");
  Comm c0 = w->comm_world(0);
  Comm c1 = w->comm_world(1);

  // A spread of protocols on the same (src, dst, tag) FIFO lane: eager
  // (shm ring / nic lightweight), and rendezvous (shm LMT / nic CTS-DATA)
  // via the large payloads. First element of each payload is its sequence
  // number; single tag so MPI ordering pins the match order.
  constexpr int kMsgs = 64;
  constexpr std::size_t kBigInts = 96 * 1024;  // 384 KiB: > both eager_max
  std::vector<std::vector<std::int32_t>> sbuf(kMsgs), rbuf(kMsgs);
  std::vector<Request> sends, recvs;
  for (int i = 0; i < kMsgs; ++i) {
    const std::size_t n = (i % 8 == 7) ? kBigInts : 4;
    sbuf[i].assign(n, i);
    rbuf[i].assign(n, -1);
    recvs.push_back(c1.irecv(rbuf[i].data(), n, dtype::Datatype::int32(),
                             /*src=*/0, /*tag=*/0));
  }
  for (int i = 0; i < kMsgs; ++i) {
    sends.push_back(c0.isend(sbuf[i].data(), sbuf[i].size(),
                             dtype::Datatype::int32(), /*dst=*/1, /*tag=*/0));
  }

  // Swap with the full burst in flight (sends posted, nothing waited):
  // fence -> drain the old carrier -> cut over; then again, back.
  core_detail::swap_topology_for_test(*w, 0, 1, *nic);
  EXPECT_EQ(&w->route(0, 1), nic);
  core_detail::swap_topology_for_test(*w, 0, 1, *shm);

  // Single-threaded completion: wait() drives only the request's own VCI,
  // and rendezvous needs BOTH endpoints polled (CTS from the receiver,
  // DATA from the sender), so drive both sides with test() until done.
  const auto pending = [](std::vector<Request>& reqs) {
    bool any = false;
    for (Request& q : reqs) {
      if (!q.is_complete()) {
        any = true;
        q.test();
      }
    }
    return any;
  };
  while (pending(sends) | pending(recvs)) {
  }
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_EQ(rbuf[i].front(), i) << "reordered or lost at seq " << i;
    ASSERT_EQ(rbuf[i].back(), i);
    EXPECT_EQ(recvs[i].status().count_bytes,
              rbuf[i].size() * sizeof(std::int32_t));
  }
  for (int r = 0; r < 4; ++r) w->finalize_rank(r);
}

TEST(TopologySwap, StressBidirectionalTrafficWhileSwapping) {
  auto w = World::create(two_node_config());
  transport::Transport* shm = w->find_transport("shm");
  transport::Transport* nic = w->find_transport("nic");

  constexpr int kMsgs = 1200;      // per direction, per pair
  constexpr int kSwapEvery = 300;  // messages between swaps (pair 0<->1)
  constexpr int kSwaps = 4;        // kSwaps * kSwapEvery <= kMsgs: all fire
  constexpr std::size_t kBigInts = 32 * 1024;  // 128 KiB rendezvous mix

  std::atomic<int> seq01{0};  // rank 0's send counter, read by the swapper
  std::atomic<bool> done{false};

  base::ScopedThread swapper([&] {
    // Alternate the hot pair's carrier every kSwapEvery messages, racing
    // the rank threads' sends/receives/waits.
    for (int s = 0; s < kSwaps; ++s) {
      const int gate = (s + 1) * kSwapEvery;
      while (!done.load(std::memory_order_acquire) &&
             seq01.load(std::memory_order_acquire) < gate) {
        // The rank threads make their own progress; just wait for traffic.
      }
      if (done.load(std::memory_order_acquire)) break;
      core_detail::swap_topology_for_test(*w, 0, 1, s % 2 == 0 ? *nic : *shm);
    }
  });

  mpx_test::run_ranks(*w, [&](int rank) {
    const int peer = rank ^ 1;  // 0<->1, 2<->3
    Comm comm = w->comm_world(rank);
    std::vector<std::int32_t> big_s(kBigInts), big_r(kBigInts);
    for (int i = 0; i < kMsgs; ++i) {
      std::int32_t small_s = i;
      std::int32_t small_r = -1;
      const bool big = i % 64 == 63;
      if (big) big_s.assign(kBigInts, i);
      Request r = big ? comm.irecv(big_r.data(), kBigInts,
                                   dtype::Datatype::int32(), peer, /*tag=*/0)
                      : comm.irecv(&small_r, 1, dtype::Datatype::int32(),
                                   peer, /*tag=*/0);
      Request s = big ? comm.isend(big_s.data(), kBigInts,
                                   dtype::Datatype::int32(), peer, /*tag=*/0)
                      : comm.isend(&small_s, 1, dtype::Datatype::int32(),
                                   peer, /*tag=*/0);
      if (rank == 0) seq01.fetch_add(1, std::memory_order_release);
      s.wait();
      r.wait();
      // FIFO + exact delivery: the i-th receive on this lane carries seq i.
      ASSERT_EQ(big ? big_r.front() : small_r, i)
          << "rank " << rank << " lane seq mismatch at " << i;
      if (big) {
        ASSERT_EQ(big_r.back(), i);
      }
    }
    w->finalize_rank(rank);
  });
  done.store(true, std::memory_order_release);
  // The last swap can still be running: its gate opens with rank 0's last
  // send. Join before reading the epoch.
  swapper.join();

  // 1 (construction) + 2 per completed swap, monotone.
  EXPECT_GE(w->topology_epoch(), 1u);
  EXPECT_EQ(w->topology_epoch() % 2, 1u);
}
