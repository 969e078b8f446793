// Task-layer tests: task-class queue (Listing 1.4), request notifier
// (Listing 1.6), futures, task graphs, and the stream-scoped progress
// thread (Fig. 5b done the §5.1 way).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "mpx/task/deadline.hpp"
#include "mpx/task/future.hpp"
#include "mpx/task/graph.hpp"
#include "mpx/task/notifier.hpp"
#include "mpx/task/progress_thread.hpp"
#include "mpx/task/task_queue.hpp"
#include "test_util.hpp"

using namespace mpx;

TEST(TaskQueue, HeadOnlyPollingCompletesInOrder) {
  WorldConfig cfg{.nranks = 1};
  cfg.use_virtual_clock = true;
  auto w = World::create(cfg);
  Stream s = w->null_stream(0);
  task::TaskQueue q(s);

  std::vector<int> completion_order;
  for (int i = 0; i < 8; ++i) {
    const double deadline = 0.1 * (i + 1);
    q.push([&, deadline, i] {
      if (w->wtime() < deadline) return false;
      completion_order.push_back(i);
      return true;
    });
  }
  EXPECT_EQ(q.pending(), 8u);
  w->virtual_clock()->advance(10.0);  // every deadline passed
  q.drain();
  ASSERT_EQ(completion_order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(completion_order[i], i);
}

TEST(TaskQueue, OnlyHeadIsPolled) {
  WorldConfig cfg{.nranks = 1};
  cfg.use_virtual_clock = true;
  auto w = World::create(cfg);
  Stream s = w->null_stream(0);
  task::TaskQueue q(s);

  std::atomic<int> head_polls{0}, tail_polls{0};
  q.push([&] {
    head_polls.fetch_add(1);
    return w->wtime() >= 1.0;
  });
  q.push([&] {
    tail_polls.fetch_add(1);
    return true;
  });
  for (int i = 0; i < 10; ++i) stream_progress(s);
  EXPECT_GE(head_polls.load(), 10);
  EXPECT_EQ(tail_polls.load(), 0);  // never polled while head pending
  w->virtual_clock()->advance(2.0);
  q.drain();
  EXPECT_EQ(tail_polls.load(), 1);
}

TEST(TaskQueue, ReusableAfterDrain) {
  auto w = World::create(WorldConfig{.nranks = 1});
  task::TaskQueue q(w->null_stream(0));
  int runs = 0;
  q.push([&] { ++runs; return true; });
  q.drain();
  EXPECT_EQ(runs, 1);
  q.push([&] { ++runs; return true; });
  q.drain();
  EXPECT_EQ(runs, 2);
}

TEST(Notifier, CallbacksOnRequestCompletion) {
  auto w = World::create(WorldConfig{.nranks = 2});
  task::RequestNotifier notifier(w->null_stream(1));
  std::vector<int> got;
  std::int32_t bufs[4] = {0, 0, 0, 0};
  Comm c1 = w->comm_world(1);
  for (int i = 0; i < 4; ++i) {
    notifier.watch(c1.irecv(&bufs[i], 1, dtype::Datatype::int32(), 0, i),
                   [&got, i](const Status& st) {
                     EXPECT_EQ(st.tag, i);
                     got.push_back(i);
                   });
  }
  Comm c0 = w->comm_world(0);
  for (std::int32_t i = 0; i < 4; ++i) {
    c0.isend(&i, 1, dtype::Datatype::int32(), 1, i);
  }
  notifier.drain();
  EXPECT_EQ(got.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(bufs[i], i);
}

TEST(Notifier, WatchFromCallback) {
  auto w = World::create(WorldConfig{.nranks = 2});
  task::RequestNotifier notifier(w->null_stream(1));
  std::int32_t first = 0, second = 0;
  bool chain_done = false;
  Comm c1 = w->comm_world(1);
  notifier.watch(c1.irecv(&first, 1, dtype::Datatype::int32(), 0, 0),
                 [&](const Status&) {
                   notifier.watch(
                       c1.irecv(&second, 1, dtype::Datatype::int32(), 0, 1),
                       [&](const Status&) { chain_done = true; });
                 });
  std::int32_t a = 10, b = 20;
  Comm c0 = w->comm_world(0);
  c0.isend(&a, 1, dtype::Datatype::int32(), 1, 0);
  c0.isend(&b, 1, dtype::Datatype::int32(), 1, 1);
  notifier.drain();
  EXPECT_TRUE(chain_done);
  EXPECT_EQ(first, 10);
  EXPECT_EQ(second, 20);
}

TEST(Future, PromiseSetInsideAsyncHook) {
  WorldConfig cfg{.nranks = 1};
  cfg.use_virtual_clock = true;
  auto w = World::create(cfg);
  Stream s = w->null_stream(0);
  task::Promise<int> promise;
  task::Future<int> f = promise.get_future();
  async_start(
      [&, promise]() mutable -> AsyncResult {
        if (w->wtime() < 1.0) return AsyncResult::pending;
        promise.set_value(321);
        return AsyncResult::done;
      },
      s);
  EXPECT_FALSE(f.ready());
  w->virtual_clock()->advance(2.0);
  EXPECT_EQ(f.get(s), 321);  // get() drives stream progress
}

TEST(Graph, DiamondDependencies) {
  auto w = World::create(WorldConfig{.nranks = 1});
  Stream s = w->null_stream(0);
  std::vector<int> order;
  task::TaskGraph g;
  auto node = [&](int id) {
    return [&order, id]() -> AsyncResult {
      order.push_back(id);
      return AsyncResult::done;
    };
  };
  auto a = g.add(node(0));
  auto b = g.add(node(1), {a});
  auto c = g.add(node(2), {a});
  auto d = g.add(node(3), {b, c});
  (void)d;
  g.launch(s);
  g.wait(s);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), 3);
}

TEST(Graph, MpiNodesOverlapWithLocalNodes) {
  // A graph mixing MPI-dependent nodes with pure-compute nodes, driven by
  // one hook — the interoperable-progress programming scheme of Fig. 6.
  auto w = World::create(WorldConfig{.nranks = 2});
  mpx_test::run_ranks(*w, [&](int rank) {
    Stream s = w->null_stream(rank);
    Comm c = w->comm_world(rank);
    task::TaskGraph g;
    std::int32_t in = 0, out = rank * 10 + 1;
    if (rank == 0) {
      Request rr = c.irecv(&in, 1, dtype::Datatype::int32(), 1, 0);
      auto recv_node = g.add([rr]() {
        return rr.is_complete() ? AsyncResult::done : AsyncResult::pending;
      });
      g.add(
          [&]() {
            out = in * 2;
            return AsyncResult::done;
          },
          {recv_node});
    } else {
      Request sr = c.isend(&out, 1, dtype::Datatype::int32(), 0, 0);
      g.add([sr]() {
        return sr.is_complete() ? AsyncResult::done : AsyncResult::pending;
      });
    }
    g.launch(s);
    g.wait(s);
    if (rank == 0) {
      EXPECT_EQ(out, 22);
    }
    w->finalize_rank(rank);
  });
}

TEST(ProgressThread, BackgroundProgressCompletesRendezvous) {
  // Fig. 5(b): a dedicated progress thread overlaps communication with
  // "computation" (here: a sleep) without any progress calls from the main
  // thread.
  WorldConfig cfg{.nranks = 2};
  cfg.shm_eager_max = 64;  // force rendezvous
  auto w = World::create(cfg);
  std::vector<std::int64_t> data(4096, 5);
  std::vector<std::int64_t> out(4096, 0);

  Request sr = w->comm_world(0).isend(data.data(), data.size(),
                                      dtype::Datatype::int64(), 1, 0);
  Request rr = w->comm_world(1).irecv(out.data(), out.size(),
                                      dtype::Datatype::int64(), 0, 0);
  {
    task::ProgressThread p0(w->null_stream(0));
    task::ProgressThread p1(w->null_stream(1));
    // "Compute" while the helpers drive the rendezvous.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!(sr.is_complete() && rr.is_complete()) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(p1.iterations(), 0u);
  }
  ASSERT_TRUE(sr.is_complete());
  ASSERT_TRUE(rr.is_complete());
  EXPECT_EQ(out, data);
}

TEST(ProgressThread, SleepBackoffIdlesCheaply) {
  auto w = World::create(WorldConfig{.nranks = 1});
  task::ProgressThread pt(w->null_stream(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pt.rungs().bell == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pt.stop();
  // A helper on a quiet VCI sleeps on the VCI's bell from its first empty
  // round (wait_policy.hpp): no spin, yield or timed-sleep rung, and about
  // one poll per safety timeout instead of the millions a busy spinner
  // would issue in 50 ms.
  EXPECT_LT(pt.iterations(), 10000u);
  EXPECT_GT(pt.iterations(), 0u);
  const auto r = pt.rungs();
  EXPECT_GT(r.bell, 0u);
  EXPECT_EQ(r.spin + r.yield + r.sleep, 0u);
}
