// TSan-targeted stress test: many threads hammering stream_progress on the
// SAME VCI concurrently with MPIX_Request_is_complete-style polls from other
// threads. This is the paper's §3.4 claim under fire — is_complete is one
// acquire load with no side effects, so completion observed from any thread
// must imply the payload (and Status) are visible. Run under the `tsan`
// preset this covers the VCI lock, the shm pending/channel locks, and the
// completion release/acquire pair; under the default preset it doubles as a
// lock-rank validator soak (the validator is on by default in every build).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "mpx/base/thread.hpp"
#include "mpx/mpx.hpp"
#include "test_util.hpp"

using namespace mpx;

namespace {

constexpr int kProgressThreads = 4;
constexpr int kMessages = 48;

}  // namespace

TEST(ProgressStress, ManyThreadsOneVciWithCompletionPolls) {
  // Two ranks on one node: all traffic takes the shared-memory path, whose
  // eager rings + sender-side pending queues are the most contended locks.
  auto w = World::create(WorldConfig{.nranks = 2, .ranks_per_node = 2});

  std::vector<std::int32_t> rbuf(kMessages, -1);
  std::vector<Request> recvs;
  recvs.reserve(kMessages);
  Comm c1 = w->comm_world(1);
  for (int i = 0; i < kMessages; ++i) {
    recvs.push_back(
        c1.irecv(&rbuf[static_cast<std::size_t>(i)], 1,
                 dtype::Datatype::int32(), /*src=*/0, /*tag=*/i));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> polls{0};
  {
    std::vector<base::ScopedThread> threads;

    // N threads progressing rank 1's default VCI concurrently.
    for (int t = 0; t < kProgressThreads; ++t) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          stream_progress(w->null_stream(1));
        }
      });
    }

    // One thread doing nothing but is_complete polls (no progress side
    // effects) across every outstanding request, §3.4 style.
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (Request& r : recvs) {
          if (r.is_complete()) polls.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });

    // Sender: rank 0 pushes all messages, driving its own progress so
    // parked sends drain even though nobody else polls rank 0.
    threads.emplace_back([&] {
      Comm c0 = w->comm_world(0);
      std::vector<Request> sends;
      sends.reserve(kMessages);
      std::vector<std::int32_t> sbuf(kMessages);
      std::iota(sbuf.begin(), sbuf.end(), 100);
      for (int i = 0; i < kMessages; ++i) {
        sends.push_back(c0.isend(&sbuf[static_cast<std::size_t>(i)], 1,
                                 dtype::Datatype::int32(), /*dst=*/1,
                                 /*tag=*/i));
      }
      for (Request& s : sends) {
        while (!s.is_complete()) stream_progress(w->null_stream(0));
      }
      // Completion of the last receive ends the test, once the poller
      // thread has had a chance to run: on a loaded host it may not have
      // been scheduled yet.
      for (Request& r : recvs) {
        while (!r.is_complete()) stream_progress(w->null_stream(0));
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (polls.load(std::memory_order_relaxed) == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      stop.store(true, std::memory_order_release);
    });
  }  // joins

  for (int i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(recvs[static_cast<std::size_t>(i)].is_complete());
    // is_complete (acquire) must order the payload write: §3.4.
    EXPECT_EQ(rbuf[static_cast<std::size_t>(i)], 100 + i);
  }
  EXPECT_GT(polls.load(), 0u);
  w->finalize_rank(0);
  w->finalize_rank(1);
}

TEST(ProgressStress, ConcurrentProgressOnDistinctStreams) {
  // Per-thread streams progressed concurrently while a shared default VCI
  // is also hammered: exercises the vci-table lock (stream rank) against
  // the per-VCI locks without any cross-stream nesting.
  auto w = World::create(WorldConfig{.nranks = 1});
  constexpr int kHooksPerThread = 8;

  std::atomic<int> fired{0};
  {
    std::vector<base::ScopedThread> threads;
    for (int t = 0; t < kProgressThreads; ++t) {
      threads.emplace_back([&] {
        Stream s = w->stream_create(0);
        std::atomic<int> remaining{kHooksPerThread};
        for (int i = 0; i < kHooksPerThread; ++i) {
          async_start(
              [&]() -> AsyncResult {
                fired.fetch_add(1, std::memory_order_relaxed);
                remaining.fetch_sub(1, std::memory_order_relaxed);
                return AsyncResult::done;
              },
              s);
        }
        while (remaining.load(std::memory_order_relaxed) != 0) {
          stream_progress(s);
          stream_progress(w->null_stream(0));  // shared-VCI contention
        }
        w->stream_free(s);
      });
    }
  }
  EXPECT_EQ(fired.load(), kProgressThreads * kHooksPerThread);
  w->finalize_rank(0);
}
