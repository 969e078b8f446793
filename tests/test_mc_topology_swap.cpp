// Model-check: the topology RCU publication protocol
// (include/mpx/core/topology.hpp). Explored invariants, across every
// interleaving of snapshot readers and a publishing/reclaiming writer:
//
//  1. Publication atomicity: a reader's single acquire-load (topology_pin)
//     returns either the predecessor or the fully built successor — epoch,
//     route table, and fence bits always agree with the pinned pointer,
//     never a half-built mix.
//
//  2. Grace-period safety: the writer's reclaim of the predecessor
//     (modeled as a plain write so the checker's vector-clock race
//     detector owns the proof) is ordered AFTER every reader section that
//     pinned it — via the quiescence-counter fast path (advertised epoch
//     release-store / writer acquire-load) or the v.mu lock-pass fallback,
//     whichever the interleaving exercises.
//
//  3. Per-VCI quiescence composes: with two readers on independent
//     (mutex, epoch-counter) pairs, quiescing each in turn is sufficient —
//     there is no hidden cross-VCI ordering requirement.
//
//  4. The grace period is LOAD-BEARING: the seeded mutation that skips
//     topology_quiesce before reclaiming must be caught (as a data race
//     between a still-pinned reader and the reclaim). A checker that
//     cannot catch the skipped grace period proves nothing about 2.
//
//  5. Fence -> drain -> cutover over the split in-flight counters
//     (PairCounters: sender-written `sent`, receiver-written `recvd`):
//     once the fenced publication's grace period has run, a drain that
//     waits for sent - recvd == 0 leaves no message on the old carrier,
//     and no sender injects onto it afterwards. Without the grace period
//     (seeded mutation) a sender that pinned the unfenced snapshot injects
//     after the drain concluded, which must be caught.
#include <gtest/gtest.h>

#include <cstdint>

#include "mpx/core/topology.hpp"
#include "mpx/mc/mc.hpp"

#if MPX_MODEL_CHECK

namespace mc = mpx::mc;
using mpx::core_detail::TopologyHandle;
using mpx::core_detail::TopologySnapshot;
using mpx::core_detail::topology_pin;
using mpx::core_detail::topology_quiesce;

namespace {

// Stand-in transports: only pointer identity matters (carrier() is a
// tagged-pointer decode; nothing here dereferences a Transport).
alignas(8) std::uint64_t g_old_t;
alignas(8) std::uint64_t g_new_t;

mpx::transport::Transport* old_t() {
  return reinterpret_cast<mpx::transport::Transport*>(&g_old_t);
}
mpx::transport::Transport* new_t() {
  return reinterpret_cast<mpx::transport::Transport*>(&g_new_t);
}

void build(TopologySnapshot& s, std::uint64_t epoch,
           mpx::transport::Transport* t, bool fence01) {
  s.epoch = epoch;
  s.nranks = 2;
  s.ranks_per_node = 2;
  const auto p = reinterpret_cast<std::uintptr_t>(t);
  s.route.assign(4, p);
  if (fence01) {
    s.route[s.pair_index(0, 1)] = p | TopologySnapshot::kFenceBit;
  }
}

// One reader critical section: pin under the VCI mutex, then use the
// snapshot exactly as the datapath does. The PLAIN_READ is the race-checked
// stand-in for every field access a poll/send makes through the pin; the
// invariant checks pin down publication atomicity (point 1 above).
template <class Mutex, class EpochAtomic>
void reader_section(TopologyHandle& h, Mutex& mu, EpochAtomic& observed,
                    const TopologySnapshot* a, const TopologySnapshot* b) {
  mu.lock();
  const TopologySnapshot* s = topology_pin(h, observed);
  MPX_MC_PLAIN_READ(s, "pinned snapshot payload");
  mc::check(s == a || s == b, "pin returned a foreign or torn pointer");
  if (s == a) {
    mc::check(s->epoch == 1, "predecessor epoch corrupted");
    mc::check(s->carrier(0, 1) == old_t(), "predecessor route corrupted");
    mc::check(!s->fenced(0, 1), "predecessor spuriously fenced");
  } else {
    mc::check(s->epoch == 2, "successor visible before epoch was set");
    mc::check(s->carrier(0, 1) == new_t(),
              "successor visible before route was compiled");
    mc::check(s->fenced(0, 1), "successor lost its fence tag");
  }
  mu.unlock();
}

}  // namespace

TEST(McTopologySwap, ReclaimOrderedAfterEveryReaderSection) {
  mc::Options opt;
  opt.name = "topology_publish_reclaim";
  const mc::Result res = mc::explore(opt, [] {
    TopologySnapshot a, b;
    build(a, 1, old_t(), /*fence01=*/false);
    TopologyHandle h;
    h.install(&a);
    mc::atomic<std::uint64_t> observed{0};  // the reader VCI's topo_epoch
    mc::mutex mu;                           // the reader VCI's v.mu

    mc::thread writer([&] {
      MPX_MC_PLAIN_WRITE(&b, "successor construction");
      build(b, 2, new_t(), /*fence01=*/true);
      const TopologySnapshot* prev = h.publish(&b);
      mc::check(prev == &a, "publish returned the wrong predecessor");
      topology_quiesce(observed, 2, mu);
      // Models `delete prev`: any reader section still able to touch the
      // predecessor makes this an (explored) data race.
      MPX_MC_PLAIN_WRITE(&a, "predecessor reclaim");
    });

    // Two sections so the schedule tree covers: both before the publish,
    // straddling it, and both after (exercising the quiescence-counter
    // fast path, where the writer never touches mu).
    reader_section(h, mu, observed, &a, &b);
    mc::yield();
    reader_section(h, mu, observed, &a, &b);

    writer.join();
    mc::check(h.acquire() == &b, "successor not current after join");
    // Snapshots live on this stack frame; detach the handle so its
    // destructor's `delete` never sees them.
    (void)h.publish(nullptr);
  });
  RecordProperty("summary", res.summary());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_GT(res.schedules, 1);
}

TEST(McTopologySwap, PerVciQuiescenceComposes) {
  mc::Options opt;
  opt.name = "topology_two_vcis";
  const mc::Result res = mc::explore(opt, [] {
    TopologySnapshot a, b;
    build(a, 1, old_t(), /*fence01=*/false);
    TopologyHandle h;
    h.install(&a);
    // Two independent VCIs: each has its own mutex and advertised epoch,
    // exactly like Datapath's per-VCI state.
    mc::atomic<std::uint64_t> obs0{0}, obs1{0};
    mc::mutex mu0, mu1;

    mc::thread r0([&] { reader_section(h, mu0, obs0, &a, &b); });
    mc::thread r1([&] { reader_section(h, mu1, obs1, &a, &b); });

    // Writer is this thread: the grace walk quiesces each VCI in turn —
    // the checker proves that is sufficient to order the reclaim after
    // BOTH readers' predecessor sections.
    MPX_MC_PLAIN_WRITE(&b, "successor construction");
    build(b, 2, new_t(), /*fence01=*/true);
    const TopologySnapshot* prev = h.publish(&b);
    mc::check(prev == &a, "publish returned the wrong predecessor");
    topology_quiesce(obs0, 2, mu0);
    topology_quiesce(obs1, 2, mu1);
    MPX_MC_PLAIN_WRITE(&a, "predecessor reclaim");

    r0.join();
    r1.join();
    (void)h.publish(nullptr);
  });
  RecordProperty("summary", res.summary());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_GT(res.schedules, 1);
}

TEST(McTopologySwap, SkippedGracePeriodIsCaught) {
  // Seeded mutation (the PR 3 discipline): reclaim immediately after the
  // publish, WITHOUT quiescing the reader. A reader section that pinned the
  // predecessor now races the reclaim — the vector-clock race detector must
  // flag the unordered plain-access pair regardless of whether the explored
  // interleaving happened to produce a benign outcome.
  mc::Options opt;
  opt.name = "topology_skipped_grace";
  const mc::Result res = mc::explore(opt, [] {
    TopologySnapshot a, b;
    build(a, 1, old_t(), /*fence01=*/false);
    TopologyHandle h;
    h.install(&a);
    mc::atomic<std::uint64_t> observed{0};
    mc::mutex mu;

    mc::thread writer([&] {
      MPX_MC_PLAIN_WRITE(&b, "successor construction");
      build(b, 2, new_t(), /*fence01=*/true);
      const TopologySnapshot* prev = h.publish(&b);
      mc::check(prev == &a, "publish returned the wrong predecessor");
      MPX_MC_PLAIN_WRITE(&a, "predecessor reclaim");  // no grace period!
    });

    reader_section(h, mu, observed, &a, &b);

    writer.join();
    (void)h.publish(nullptr);
  });
  RecordProperty("summary", res.summary());
  EXPECT_FALSE(res.ok())
      << "skipping the grace period went undetected: " << res.summary();
  EXPECT_FALSE(res.failure.empty());
}

namespace {

// One old-carrier channel 0 -> 1: `head` is published by the sender (under
// its VCI lock mu0), `tail` is consumed under the receiver's VCI lock mu1.
struct OldCarrier {
  mc::atomic<int> head{0};
  int msgs[2] = {0, 0};
  int tail = 0;  // guarded by mu1
};

// The fence -> drain -> cutover sequence of World::swap_topology_for_test
// against a sender that sends twice. `grace` = false is the seeded
// mutation that skips the fence publication's grace period.
mc::Result drain_scenario(const char* name, bool grace) {
  mc::Options opt;
  opt.name = name;
  return mc::explore(opt, [grace] {
    mpx::core_detail::PairCounters pairs;
    pairs.resize(2);
    TopologySnapshot a, b;
    build(a, 1, old_t(), /*fence01=*/false);
    build(b, 2, new_t(), /*fence01=*/true);
    a.pairs = &pairs;
    b.pairs = &pairs;
    TopologyHandle h;
    h.install(&a);
    mc::atomic<std::uint64_t> obs0{0};  // the sender VCI's topo_epoch
    mc::mutex mu0, mu1;                 // sender / receiver VCI locks
    OldCarrier ch;
    int parked = 0;  // sends held behind the fence (sender-local)

    mc::thread sender([&] {
      for (int i = 0; i < 2; ++i) {
        mu0.lock();
        const TopologySnapshot* s = topology_pin(h, obs0);
        if (s->fenced(0, 1)) {
          ++parked;
        } else {
          s->pairs->count_sent(0, 1);
          const int n = ch.head.load(std::memory_order_relaxed);
          MPX_MC_PLAIN_WRITE(&ch.msgs[n], "old-carrier message");
          ch.msgs[n] = i + 1;
          ch.head.store(n + 1, std::memory_order_release);
        }
        mu0.unlock();
      }
    });

    // Control thread: FENCE, then DRAIN by driving the receiver's progress
    // until the pair reads zero in flight.
    const TopologySnapshot* prev = h.publish(&b);
    mc::check(prev == &a, "publish returned the wrong predecessor");
    if (grace) topology_quiesce(obs0, 2, mu0);
    while (pairs.inflight(0, 1) != 0) {
      mu1.lock();
      if (ch.tail < ch.head.load(std::memory_order_acquire)) {
        MPX_MC_PLAIN_READ(&ch.msgs[ch.tail], "old-carrier message");
        mc::check(ch.msgs[ch.tail] == ch.tail + 1, "old carrier reordered");
        pairs.count_recvd(0, 1);
        ++ch.tail;
      }
      mu1.unlock();
      mc::yield();  // the real drain drives progress between reads
    }
    // CUTOVER: whatever the old carrier delivered by now is all it will
    // ever carry.
    mu1.lock();
    const int drained = ch.tail;
    mu1.unlock();

    sender.join();
    mc::check(ch.head.load(std::memory_order_acquire) == drained,
              "a message reached the old carrier after the drain concluded");
    mc::check(drained + parked == 2, "a send was lost");
    mc::check(pairs.inflight(0, 1) == 0, "in-flight count did not settle");
    (void)h.publish(nullptr);
  });
}

}  // namespace

TEST(McTopologySwap, DrainOverSplitCountersLeavesOldCarrierEmpty) {
  const mc::Result res = drain_scenario("topology_drain", /*grace=*/true);
  RecordProperty("summary", res.summary());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_GT(res.schedules, 1);
}

TEST(McTopologySwap, DrainWithoutFenceGracePeriodIsCaught) {
  const mc::Result res =
      drain_scenario("topology_drain_no_grace", /*grace=*/false);
  RecordProperty("summary", res.summary());
  EXPECT_FALSE(res.ok())
      << "draining without the fence's grace period went undetected: "
      << res.summary();
  EXPECT_FALSE(res.failure.empty());
}

#else
TEST(McTopologySwap, SkippedWithoutModelCheck) { GTEST_SKIP(); }
#endif
