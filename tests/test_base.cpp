// Unit tests for the base foundation: intrusive containers, refcounting,
// queues, clocks, stats, cvars, pools, and locks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

#include "mpx/base/clock.hpp"
#include "mpx/base/cvar.hpp"
#include "mpx/base/instrumented_mutex.hpp"
#include "mpx/base/intrusive.hpp"
#include "mpx/base/pool.hpp"
#include "mpx/base/queue.hpp"
#include "mpx/base/spinlock.hpp"
#include "mpx/base/stats.hpp"
#include "mpx/base/thread.hpp"
#include "mpx/core/detail/request_impl.hpp"
#include "mpx/mc/sync.hpp"

using namespace mpx::base;

#if !MPX_MODEL_CHECK
// Zero-overhead pin for the mc:: shims (promised by mpx/mc/sync.hpp): in
// production builds they ARE the raw primitives — pure aliases, no wrapper
// types, nothing for codegen to see.
static_assert(std::is_same_v<mpx::mc::atomic<int>, std::atomic<int>>);
static_assert(std::is_same_v<mpx::mc::atomic<bool>, std::atomic<bool>>);
static_assert(std::is_same_v<mpx::mc::mutex, std::mutex>);
static_assert(std::is_same_v<mpx::mc::rec_mutex, std::recursive_mutex>);
static_assert(std::is_same_v<mpx::mc::spinlock, mpx::base::Spinlock>);
#endif

namespace {

struct Node {
  explicit Node(int val) : v(val) {}
  int v;
  ListHook hook;
};
using NodeList = IntrusiveList<Node, &Node::hook>;

}  // namespace

TEST(Intrusive, ForEachUntilStopsEarly) {
  NodeList l;
  Node a(1), b(2), c(3);
  l.push_back(&a);
  l.push_back(&b);
  l.push_back(&c);
  int visited = 0;
  Node* hit = l.for_each_until([&](Node* n) {
    ++visited;
    return n->v == 2;
  });
  ASSERT_EQ(hit, &b);
  EXPECT_EQ(visited, 2);  // early exit: c never visited
  EXPECT_EQ(l.for_each_until([](Node* n) { return n->v == 9; }), nullptr);
  l.erase(&a);
  l.erase(&b);
  l.erase(&c);
}

TEST(Intrusive, PushPopOrder) {
  NodeList l;
  Node a(1), b(2), c(3);
  EXPECT_TRUE(l.empty());
  l.push_back(&a);
  l.push_back(&b);
  l.push_front(&c);
  EXPECT_EQ(l.size(), 3u);
  EXPECT_EQ(l.pop_front()->v, 3);
  EXPECT_EQ(l.pop_front()->v, 1);
  EXPECT_EQ(l.pop_front()->v, 2);
  EXPECT_EQ(l.pop_front(), nullptr);
}

TEST(Intrusive, EraseMiddleAndRelink) {
  NodeList l;
  Node a(1), b(2), c(3);
  l.push_back(&a);
  l.push_back(&b);
  l.push_back(&c);
  l.erase(&b);
  EXPECT_EQ(l.size(), 2u);
  EXPECT_FALSE(b.hook.linked());
  l.push_back(&b);  // relinking after erase is legal
  std::vector<int> seen;
  l.for_each_safe([&](Node* n) { seen.push_back(n->v); });
  EXPECT_EQ(seen, (std::vector<int>{1, 3, 2}));
}

TEST(Intrusive, ForEachSafeAllowsErasingCurrent) {
  NodeList l;
  std::vector<Node> nodes;
  nodes.reserve(10);
  for (int i = 0; i < 10; ++i) nodes.emplace_back(i);
  for (auto& n : nodes) l.push_back(&n);
  l.for_each_safe([&](Node* n) {
    if (n->v % 2 == 0) l.erase(n);
  });
  EXPECT_EQ(l.size(), 5u);
  l.for_each_safe([&](Node* n) { EXPECT_EQ(n->v % 2, 1); });
}

TEST(Intrusive, SpliceBack) {
  NodeList a, b;
  Node n1(1), n2(2), n3(3);
  a.push_back(&n1);
  b.push_back(&n2);
  b.push_back(&n3);
  a.splice_back(b);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(a.size(), 3u);
  std::vector<int> seen;
  a.for_each_safe([&](Node* n) { seen.push_back(n->v); });
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

namespace {
struct Counted : RefCounted {
  explicit Counted(int* d) : deaths(d) {}
  ~Counted() { ++*deaths; }
  int* deaths;
};
}  // namespace

TEST(Refcount, AdoptShareRelease) {
  int deaths = 0;
  {
    Ref<Counted> r1(new Counted(&deaths));  // adopt
    EXPECT_EQ(r1->ref_count(), 1);
    {
      Ref<Counted> r2 = r1;  // copy: +1
      EXPECT_EQ(r1->ref_count(), 2);
      Ref<Counted> r3 = Ref<Counted>::share(r1.get());  // +1
      EXPECT_EQ(r1->ref_count(), 3);
    }
    EXPECT_EQ(r1->ref_count(), 1);
    Counted* raw = r1.release();  // manual ownership
    EXPECT_FALSE(r1);
    Ref<Counted> r4(raw);  // re-adopt
  }
  EXPECT_EQ(deaths, 1);
}

TEST(SpscRing, FifoAndCapacity) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_FALSE(ring.try_push(99));  // full
  for (int i = 0; i < 8; ++i) {
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, RejectsNonPowerOfTwo) {
  EXPECT_THROW(SpscRing<int>(6), mpx::UsageError);
}

TEST(SpscRing, ConcurrentProducerConsumer) {
  SpscRing<int> ring(64);
  constexpr int kN = 100000;
  std::int64_t sum = 0;
  std::thread consumer([&] {
    int got = 0;
    while (got < kN) {
      if (auto v = ring.try_pop()) {
        sum += *v;
        ++got;
      } else {
        cpu_relax();
      }
    }
  });
  for (int i = 0; i < kN; ++i) {
    while (!ring.try_push(int(i))) cpu_relax();
  }
  consumer.join();
  EXPECT_EQ(sum, static_cast<std::int64_t>(kN) * (kN - 1) / 2);
}

TEST(MpscQueue, ConcurrentProducers) {
  MpscQueue<int> q;
  constexpr int kPer = 20000;
  {
    std::vector<std::thread> producers;
    for (int t = 0; t < 4; ++t) {
      producers.emplace_back([&q, t] {
        for (int i = 0; i < kPer; ++i) q.push(t * kPer + i);
      });
    }
    for (auto& p : producers) p.join();
  }
  std::set<int> seen;
  while (auto v = q.try_pop()) seen.insert(*v);
  EXPECT_EQ(seen.size(), 4u * kPer);
}

TEST(Clock, SteadyMonotonic) {
  SteadyClock c;
  const double a = c.now();
  const double b = c.now();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(Clock, VirtualAdvanceAndSet) {
  VirtualClock c;
  EXPECT_EQ(c.now(), 0.0);
  c.advance(1.5);
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.set(3.0);
  EXPECT_DOUBLE_EQ(c.now(), 3.0);
  EXPECT_THROW(c.set(2.0), mpx::UsageError);   // backwards
  EXPECT_THROW(c.advance(-1.0), mpx::UsageError);
}

TEST(Stats, SummaryAndTrimmedMean) {
  LatencyRecorder r;
  for (int i = 1; i <= 99; ++i) r.add_us(1.0);
  r.add_us(1000.0);  // one outlier
  const auto s = r.summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean_us, 10.99, 0.01);
  EXPECT_NEAR(s.trimmed_mean_us, 1.0, 1e-9);  // outlier trimmed
  EXPECT_NEAR(s.p50_us, 1.0, 1e-9);
  EXPECT_NEAR(s.max_us, 1000.0, 1e-9);
}

TEST(Stats, MergeCombinesPerThreadRecorders) {
  std::vector<LatencyRecorder> per_thread(4);
  {
    std::vector<std::thread> ts;
    for (std::size_t t = 0; t < per_thread.size(); ++t) {
      ts.emplace_back([&per_thread, t] {
        for (int i = 1; i <= 25; ++i) {
          per_thread[t].add_us(static_cast<double>(t * 25 + i));
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  LatencyRecorder all;
  for (const LatencyRecorder& r : per_thread) all.merge(r);
  all.merge(all);  // self-merge is a no-op
  const LatencySummary s = all.summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.min_us, 1.0, 1e-9);
  EXPECT_NEAR(s.max_us, 100.0, 1e-9);
  EXPECT_NEAR(s.mean_us, 50.5, 1e-9);
}

TEST(Stats, MeanAccumulatorWelford) {
  MeanAccumulator m;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.add(x);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Cvar, EnvParsing) {
  setenv("MPX_TEST_INT", "42", 1);
  setenv("MPX_TEST_BAD", "pony", 1);
  setenv("MPX_TEST_BOOL", "yes", 1);
  EXPECT_EQ(cvar_int("MPX_TEST_INT", 7), 42);
  EXPECT_EQ(cvar_int("MPX_TEST_BAD", 7), 7);
  EXPECT_EQ(cvar_int("MPX_TEST_UNSET", 7), 7);
  EXPECT_TRUE(cvar_bool("MPX_TEST_BOOL", false));
  EXPECT_EQ(cvar_string("MPX_TEST_INT", ""), "42");
}

TEST(Pool, FreelistPoolRecyclesAndCaps) {
  struct Node {
    explicit Node(int x) : v(x) {}
    int v;
  };
  FreelistPool<Node> pool(/*max_free=*/1);
  Node* a = pool.acquire(1);
  Node* b = pool.acquire(2);
  EXPECT_EQ(a->v, 1);
  EXPECT_EQ(pool.stats().live, 2u);
  EXPECT_EQ(pool.stats().misses, 2u);
  pool.release(a);  // parked (free_count 1 == max_free)
  pool.release(b);  // over the cap: freed, counted as overflow
  EXPECT_EQ(pool.stats().live, 0u);
  EXPECT_EQ(pool.stats().free_count, pool_passthrough() ? 0u : 1u);
  EXPECT_EQ(pool.stats().overflow, pool_passthrough() ? 2u : 1u);
  Node* c = pool.acquire(3);
  EXPECT_EQ(c->v, 3);
  if (!pool_passthrough()) {
    EXPECT_EQ(pool.stats().hits, 1u);  // reused the parked block
  }
  pool.release(c);
  pool.drain();
  EXPECT_EQ(pool.stats().free_count, 0u);
}

TEST(Pool, FixedBlockPoolRegistryAndStats) {
  auto find = [](const char* name) -> std::optional<PoolStats> {
    for (const NamedPoolStats& row : pool_registry_snapshot()) {
      if (row.name == name) return row.stats;
    }
    return std::nullopt;
  };
  EXPECT_FALSE(find("test-block").has_value());
  {
    FixedBlockPool pool("test-block", 64, /*max_free=*/4);
    void* p = pool.allocate(64);
    void* q = pool.allocate(32);  // smaller than block: still poolable
    ASSERT_TRUE(find("test-block").has_value());
    EXPECT_EQ(find("test-block")->live, 2u);
    pool.deallocate(p);
    pool.deallocate(q);
    EXPECT_EQ(find("test-block")->live, 0u);
    if (!pool_passthrough()) {
      EXPECT_EQ(find("test-block")->free_count, 2u);
      void* r = pool.allocate(64);
      EXPECT_EQ(pool.stats().hits, 1u);
      pool.deallocate(r);
    }
    // Oversized requests bypass the freelist but stay accounted.
    void* big = pool.allocate(1024);
    EXPECT_EQ(pool.stats().live, 1u);
    pool.deallocate(big);
  }
  // Destruction unregisters the pool.
  EXPECT_FALSE(find("test-block").has_value());
}

TEST(Pool, PooledBufferRoundtrip) {
  const char msg[] = "pooled payload bytes";
  Buffer b = pooled_copy(as_bytes(msg, sizeof(msg)));
  ASSERT_EQ(b.size(), sizeof(msg));
  EXPECT_EQ(std::memcmp(b.data(), msg, sizeof(msg)), 0);
  // Oversized buffers fall back to plain storage but keep working.
  Buffer big = pooled_buffer(PayloadPool::instance().max_block() + 1);
  EXPECT_EQ(big.size(), PayloadPool::instance().max_block() + 1);
  big.data()[0] = std::byte{7};
  Buffer moved = std::move(big);
  EXPECT_EQ(moved.data()[0], std::byte{7});
  EXPECT_EQ(pooled_buffer(0).size(), 0u);
}

TEST(Pool, PayloadPoolRecyclesPerSizeClass) {
  PayloadPool& pool = PayloadPool::instance();
  const PoolStats before = pool.stats();
  {
    Buffer a = pooled_buffer(256);
    EXPECT_EQ(pool.stats().live, before.live + 1);
  }  // released back into the 256-byte class
  EXPECT_EQ(pool.stats().live, before.live);
  if (!pool_passthrough()) {
    Buffer b = pooled_buffer(256);
    EXPECT_GT(pool.stats().hits, before.hits);  // storage was recycled
  }
}

// Blocks allocated on one thread and freed on another (eager payloads:
// sender allocates, receiver frees; requests: the last reference drops on
// any thread) park on the freeing thread's shard. The allocating thread's
// refill must keep recycling them, so a one-way stream settles into zero
// allocator calls per message instead of one operator new each.
TEST(Pool, CrossThreadStreamKeepsRecycling) {
  constexpr int kMessages = 100000;
  constexpr int kWarmup = 1000;
  constexpr std::size_t kWindow = 64;  // in-flight bound of the hand-off
  constexpr std::size_t kPayload = 4096;
  PayloadPool& payload = PayloadPool::instance();
  FixedBlockPool& requests = mpx::core_detail::request_pool();
  const std::size_t req_bytes = sizeof(mpx::core_detail::RequestImpl);
  const PoolStats pay0 = payload.stats();
  const PoolStats req0 = requests.stats();

  struct Item {
    Buffer payload;
    void* request = nullptr;
  };
  SpscRing<Item> ring(kWindow);
  PoolStats pay_warm, req_warm;  // written by the consumer, read after join
  std::thread producer([&] {
    for (int i = 0; i < kMessages; ++i) {
      Item it{pooled_buffer(kPayload), requests.allocate(req_bytes)};
      it.payload.data()[0] = static_cast<std::byte>(i);
      while (!ring.try_push(std::move(it))) cpu_relax();
    }
  });
  std::thread consumer([&] {
    for (int i = 0; i < kMessages; ++i) {
      std::optional<Item> it;
      while (!(it = ring.try_pop())) cpu_relax();
      EXPECT_EQ(it->payload.data()[0], static_cast<std::byte>(i));
      requests.deallocate(it->request);
      it->payload = Buffer();  // freed here, on the consumer's shard
      if (i == kWarmup) {
        pay_warm = payload.stats();
        req_warm = requests.stats();
      }
    }
  });
  producer.join();
  consumer.join();

  const PoolStats pay1 = payload.stats();
  const PoolStats req1 = requests.stats();
  EXPECT_EQ(pay1.live, pay0.live);
  EXPECT_EQ(req1.live, req0.live);
  if (pool_passthrough()) return;  // every block went to the allocator
  // Parked storage stays within the documented per-shard bound.
  const std::size_t pay_cap = PayloadPool::kCap;
  const std::size_t req_cap = mpx::core_detail::kRequestPoolCap;
  EXPECT_LE(pay1.free_count - pay0.free_count, kPoolShards * pay_cap);
  EXPECT_LE(req1.free_count, kPoolShards * req_cap);
  // Once the blocks in circulation cover the window, every acquire is
  // served from a freelist: fewer misses than one window's worth, not one
  // per message.
  EXPECT_LT(pay1.misses - pay_warm.misses, kWindow);
  EXPECT_LT(req1.misses - req_warm.misses, kWindow);
  EXPECT_GE(pay1.hits - pay0.hits,
            static_cast<std::uint64_t>(kMessages - kWarmup));
}

// The per-shard cap bound: driving each thread's shard past its cap drops
// the excess to the allocator, counted as overflow, and leaks nothing.
TEST(Pool, CapsOverflowFromFourThreads) {
  constexpr int kThreads = 4;
  constexpr std::size_t kExtra = 100;
  constexpr std::size_t kPayload = 4096;
  PayloadPool& payload = PayloadPool::instance();
  FixedBlockPool& requests = mpx::core_detail::request_pool();
  const std::size_t req_bytes = sizeof(mpx::core_detail::RequestImpl);
  const std::size_t pay_cap = PayloadPool::kCap;
  const std::size_t req_cap = mpx::core_detail::kRequestPoolCap;
  const PoolStats pay0 = payload.stats();
  const PoolStats req0 = requests.stats();

  // Allocate everything, then (after every thread has) free everything:
  // with no acquire in flight, no refill can empty a shard mid-release, so
  // each thread's shard ends exactly at its cap.
  std::atomic<int> allocated{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      std::vector<Buffer> bufs;
      std::vector<void*> reqs;
      for (std::size_t i = 0; i < pay_cap + kExtra; ++i) {
        bufs.push_back(pooled_buffer(kPayload));
      }
      for (std::size_t i = 0; i < req_cap + kExtra; ++i) {
        reqs.push_back(requests.allocate(req_bytes));
      }
      allocated.fetch_add(1, std::memory_order_acq_rel);
      while (allocated.load(std::memory_order_acquire) != kThreads) {
        cpu_relax();
      }
      bufs.clear();
      for (void* r : reqs) requests.deallocate(r);
    });
  }
  for (auto& t : ts) t.join();

  const PoolStats pay1 = payload.stats();
  const PoolStats req1 = requests.stats();
  EXPECT_EQ(pay1.live, pay0.live);
  EXPECT_EQ(req1.live, req0.live);
  EXPECT_GE(pay1.overflow - pay0.overflow, kThreads * kExtra);
  EXPECT_GE(req1.overflow - req0.overflow, kThreads * kExtra);
  EXPECT_LE(pay1.free_count - pay0.free_count, kPoolShards * pay_cap);
  EXPECT_LE(req1.free_count, kPoolShards * req_cap);
  if (!pool_passthrough()) {
    // Each thread's shard (distinct: fewer live threads than shards)
    // ended at exactly its cap.
    EXPECT_GE(pay1.free_count, kThreads * pay_cap);
    EXPECT_GE(req1.free_count, kThreads * req_cap);
  }
}

// Threads claim distinct shards while any is free, share them beyond
// kPoolShards, and hand them back at exit.
TEST(Pool, ShardClaimsAreDistinctAndReturned) {
  using mpx::base::pool_detail::this_thread_shard;
  constexpr std::size_t kLive = kPoolShards - 1;  // the main thread has one
  const std::size_t main_shard = this_thread_shard();
  std::vector<std::size_t> got(kLive);
  std::atomic<std::size_t> claimed{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kLive; ++t) {
    ts.emplace_back([&, t] {
      got[t] = this_thread_shard();
      claimed.fetch_add(1, std::memory_order_acq_rel);
      while (!release.load(std::memory_order_acquire)) cpu_relax();
    });
  }
  while (claimed.load(std::memory_order_acquire) != kLive) cpu_relax();
  release.store(true, std::memory_order_release);
  for (auto& t : ts) t.join();
  std::set<std::size_t> distinct(got.begin(), got.end());
  distinct.insert(main_shard);
  EXPECT_EQ(distinct.size(), kPoolShards);
  // Every claim came back: a fresh thread again gets an unused shard, not
  // the main thread's.
  std::size_t fresh = main_shard;
  std::thread([&] { fresh = this_thread_shard(); }).join();
  EXPECT_NE(fresh, main_shard);
}

TEST(Locks, SpinlockMutualExclusion) {
  Spinlock mu;
  int counter = 0;
  {
    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t) {
      ts.emplace_back([&] {
        for (int i = 0; i < 10000; ++i) {
          std::lock_guard<Spinlock> g(mu);
          ++counter;
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  EXPECT_EQ(counter, 40000);
}

TEST(Locks, InstrumentedMutexCountsAndRecursion) {
  InstrumentedMutex mu;
  mu.lock();
  mu.lock();  // recursive acquisition must not deadlock
  mu.unlock();
  mu.unlock();
  EXPECT_EQ(mu.stats().acquires, 2u);
  EXPECT_EQ(mu.stats().contended, 0u);
  mu.reset_stats();
  EXPECT_EQ(mu.stats().acquires, 0u);
}
