// Every blocking wait in the library idles through one loop
// (core_detail::poll_until, wait_policy.hpp). One parameterized test blocks
// each waiter on work that completes late and checks two things the
// adaptive progress engine and the tuning knobs rely on:
//   * the idle rounds are charged to the waited VCI (World::vci_wait_rungs);
//   * WorldConfig::wait_spin / wait_yield decide which rung they land on —
//     except for progress_until and the waits built on it, which only an
//     async hook completes and which stay on the spin rung whatever the
//     ladder says (core_detail::kFullRateSpin).
// A progress helper climbs the same ladder while its VCI is not quiet; on a
// quiet VCI it sleeps on the VCI's bell instead and charges no rung at all
// (QuietHelper below).
// The late work is released from another thread once the waiter is seen on
// the ladder (or after kPatience, so a waiter that charges nothing fails
// instead of hanging).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "mpx/coll/user_allreduce.hpp"
#include "mpx/task/coro.hpp"
#include "mpx/task/future.hpp"
#include "mpx/task/graph.hpp"
#include "mpx/task/notifier.hpp"
#include "mpx/task/progress_thread.hpp"
#include "mpx/task/task_queue.hpp"
#include "src/core/test_hooks.hpp"
#include "test_util.hpp"

using namespace mpx;

namespace {

using Rungs = World::WaitRungCounters;

constexpr auto kPatience = std::chrono::milliseconds(300);

Rungs minus(const Rungs& a, const Rungs& b) {
  return Rungs{a.spin - b.spin, a.yield - b.yield, a.sleep - b.sleep};
}

std::uint64_t total(const Rungs& r) { return r.spin + r.yield + r.sleep; }

/// Rank 0's default VCI: the one every waiter below waits on.
Rungs waited(const World& w) { return w.vci_wait_rungs(0, 0); }

/// Runs `release` on another thread once the waited VCI shows an idle
/// round, or after kPatience if it never does; joins on destruction.
class LateRelease {
 public:
  LateRelease(World& w, std::function<void()> release)
      : thread_([&w, release = std::move(release)] {
          const Rungs start = waited(w);
          const auto give_up = std::chrono::steady_clock::now() + kPatience;
          while (total(minus(waited(w), start)) == 0 &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
          release();
        }) {}

 private:
  base::ScopedThread thread_;
};

const dtype::Datatype kInt = dtype::Datatype::int32();

void send_from_1(World& w, std::int32_t v, int tag) {
  w.comm_world(1).send(&v, 1, kInt, 0, tag);
}

task::Coro await_flag(const std::atomic<bool>* flag, Stream s) {
  co_await task::until([flag] { return flag->load(); }, s);
}

struct Waiter {
  const char* name;
  /// Blocks in the waiter until late work completes; returns the rung
  /// counts the wait charged.
  Rungs (*block)(World& w);
  /// Spins at full rate whatever WorldConfig::wait_* says.
  bool full_rate = false;
};

/// gtest prints the parameter into the test name: print the waiter's name,
/// not the bytes of its pointers.
void PrintTo(const Waiter& w, std::ostream* os) { *os << w.name; }

/// Rung delta of the waited VCI across `body`.
template <class Body>
Rungs charged(World& w, Body&& body) {
  const Rungs before = waited(w);
  body();
  return minus(waited(w), before);
}

const Waiter kWaiters[] = {
    {"Request_wait",
     [](World& w) {
       return charged(w, [&] {
         std::int32_t v = 0;
         Request r = w.comm_world(0).irecv(&v, 1, kInt, 1, 0);
         LateRelease late(w, [&w] { send_from_1(w, 7, 0); });
         r.wait();
         EXPECT_EQ(v, 7);
       });
     }},
    {"wait_on_stream",
     [](World& w) {
       return charged(w, [&] {
         std::int32_t v = 0;
         Request r = w.comm_world(0).irecv(&v, 1, kInt, 1, 0);
         LateRelease late(w, [&w] { send_from_1(w, 7, 0); });
         wait_on_stream(r, w.null_stream(0));
         EXPECT_EQ(v, 7);
       });
     }},
    {"wait_all",
     [](World& w) {
       return charged(w, [&] {
         std::int32_t v[2] = {0, 0};
         std::vector<Request> rs;
         for (int t = 0; t < 2; ++t) {
           rs.push_back(w.comm_world(0).irecv(&v[t], 1, kInt, 1, t));
         }
         LateRelease late(w, [&w] {
           send_from_1(w, 3, 0);
           send_from_1(w, 4, 1);
         });
         wait_all(rs);
         EXPECT_EQ(v[0] + v[1], 7);
       });
     }},
    {"wait_any",
     [](World& w) {
       return charged(w, [&] {
         std::int32_t v[2] = {0, 0};
         std::vector<Request> rs;
         for (int t = 0; t < 2; ++t) {
           rs.push_back(w.comm_world(0).irecv(&v[t], 1, kInt, 1, t));
         }
         {
           LateRelease late(w, [&w] { send_from_1(w, 7, 1); });
           EXPECT_EQ(wait_any(rs), 1u);
         }
         rs[0].cancel();
         EXPECT_TRUE(rs[0].is_complete());
       });
     }},
    {"progress_until",
     [](World& w) {
       return charged(w, [&] {
         std::atomic<bool> flag{false};
         LateRelease late(w, [&flag] { flag.store(true); });
         progress_until(w.null_stream(0), [&flag] { return flag.load(); });
       });
     },
     true},
    {"Comm_sendrecv",
     [](World& w) {
       return charged(w, [&] {
         std::int32_t out = 5, in = 0;
         LateRelease late(w, [&w] {
           std::int32_t got = 0;
           w.comm_world(1).recv(&got, 1, kInt, 0, 0);
           send_from_1(w, got + 1, 0);
         });
         w.comm_world(0).sendrecv(&out, 1, kInt, 1, 0, &in, 1, kInt, 1, 0);
         EXPECT_EQ(in, 6);
       });
     }},
    {"user_allreduce_int_sum",
     [](World& w) {
       return charged(w, [&] {
         // Rank r contributes r + 1; ranks 1..3 join late.
         std::int32_t mine = 1;
         LateRelease late(w, [&w] {
           std::vector<base::ScopedThread> others;
           for (int r = 1; r < w.size(); ++r) {
             others.emplace_back([&w, r] {
               std::int32_t theirs = r + 1;
               EXPECT_EQ(
                   coll::user_allreduce_int_sum(&theirs, 1, w.comm_world(r)),
                   Err::success);
             });
           }
         });
         EXPECT_EQ(coll::user_allreduce_int_sum(&mine, 1, w.comm_world(0)),
                   Err::success);
         EXPECT_EQ(mine, 10);
       });
     },
     true},
    {"Future_get",
     [](World& w) {
       return charged(w, [&] {
         task::Promise<int> p;
         task::Future<int> f = p.get_future();
         LateRelease late(w, [&p] { p.set_value(7); });
         EXPECT_EQ(f.get(w.null_stream(0)), 7);
       });
     },
     true},
    {"Coro_wait",
     [](World& w) {
       return charged(w, [&] {
         std::atomic<bool> flag{false};
         const Stream s = w.null_stream(0);
         task::Coro c = await_flag(&flag, s);
         LateRelease late(w, [&flag] { flag.store(true); });
         c.wait(s);
       });
     },
     true},
    {"TaskGraph_wait",
     [](World& w) {
       return charged(w, [&] {
         std::atomic<bool> flag{false};
         const Stream s = w.null_stream(0);
         task::TaskGraph g;
         g.add([&flag] {
           return flag.load() ? AsyncResult::done : AsyncResult::noprogress;
         });
         g.launch(s);
         LateRelease late(w, [&flag] { flag.store(true); });
         g.wait(s);
       });
     },
     true},
    {"TaskQueue_drain",
     [](World& w) {
       return charged(w, [&] {
         std::atomic<bool> flag{false};
         task::TaskQueue q(w.null_stream(0));
         q.push([&flag] { return flag.load(); });
         LateRelease late(w, [&flag] { flag.store(true); });
         q.drain();
       });
     },
     true},
    {"RequestNotifier_drain",
     [](World& w) {
       return charged(w, [&] {
         std::int32_t v = 0;
         int fired = 0;
         task::RequestNotifier n(w.null_stream(0));
         n.watch(w.comm_world(0).irecv(&v, 1, kInt, 1, 0),
                 [&fired](const Status&) { ++fired; });
         LateRelease late(w, [&w] { send_from_1(w, 7, 0); });
         n.drain();
         EXPECT_EQ(fired, 1);
       });
     },
     true},
    {"World_finalize_rank",
     [](World& w) {
       return charged(w, [&] {
         std::atomic<bool> flag{false};
         async_start(
             [&flag] {
               return flag.load() ? AsyncResult::done
                                  : AsyncResult::noprogress;
             },
             w.null_stream(0));
         LateRelease late(w, [&flag] { flag.store(true); });
         w.finalize_rank(0);
       });
     }},
    {"topology_swap_drain",
     // The late work is a message still on the slow simulated NIC when the
     // pair is swapped back to shm: the drain idles until it lands.
     [](World& w) {
       transport::Transport& shm = *w.find_transport("shm");
       transport::Transport& nic = *w.find_transport("nic");
       core_detail::swap_topology_for_test(w, 0, 1, nic);
       std::int32_t out = 7, in = 0;
       w.comm_world(0).send(&out, 1, kInt, 1, 0);
       const Rungs d =
           charged(w, [&] {
             core_detail::swap_topology_for_test(w, 0, 1, shm);
           });
       w.comm_world(1).recv(&in, 1, kInt, 0, 0);
       EXPECT_EQ(in, 7);
       return d;
     }},
    {"ProgressThread_run",
     // A helper thread charges its own counters, not the VCI it polls: the
     // engine must not read its own pollers as stuck waiters. A pending
     // hook keeps the VCI from being quiet, so the helper keeps the ladder;
     // finalize_rank retires the hook.
     [](World& w) {
       auto release = std::make_shared<std::atomic<bool>>(false);
       async_start(
           [release] {
             return release->load() ? AsyncResult::done
                                    : AsyncResult::noprogress;
           },
           w.null_stream(0));
       const Rungs vci_before = waited(w);
       task::ProgressThread pt(w.null_stream(0));
       const auto give_up = std::chrono::steady_clock::now() + kPatience;
       while (pt.rungs().spin + pt.rungs().yield + pt.rungs().sleep == 0 &&
              std::chrono::steady_clock::now() < give_up) {
         std::this_thread::sleep_for(std::chrono::microseconds(100));
       }
       pt.stop();
       release->store(true);
       EXPECT_EQ(total(minus(waited(w), vci_before)), 0u);
       const auto r = pt.rungs();
       EXPECT_EQ(r.bell, 0u) << "a helper with a hook pending slept";
       return Rungs{r.spin, r.yield, r.sleep};
     }},
};

/// A ladder setting and the only rung its idle rounds may land on.
struct Ladder {
  const char* name;
  int spin;
  int yield;
  std::uint64_t Rungs::* lands;
};

const Ladder kLadders[] = {
    {"spin forever", -1, 0, &Rungs::spin},
    {"yield forever", 0, -1, &Rungs::yield},
    {"sleep at once", 0, 0, &Rungs::sleep},
};

class WaitLadder : public ::testing::TestWithParam<Waiter> {};

}  // namespace

TEST_P(WaitLadder, IdleRoundsChargeTheWaitedVciOnTheConfiguredRung) {
  for (const Ladder& l : kLadders) {
    SCOPED_TRACE(l.name);
    // Two nodes of two ranks: pair (0,1) routes shm and the NIC reaches it
    // too; the NIC's 2 ms latency makes the swap drain wait.
    WorldConfig cfg;
    cfg.nranks = 4;
    cfg.ranks_per_node = 2;
    cfg.net.alpha = 2e-3;
    cfg.wait_spin = l.spin;
    cfg.wait_yield = l.yield;
    auto w = World::create(cfg);
    const Rungs d = GetParam().block(*w);
    const auto lands = GetParam().full_rate ? &Rungs::spin : l.lands;
    EXPECT_GT(d.*lands, 0u) << "the wait charged no idle round";
    EXPECT_EQ(total(d), d.*lands) << "an idle round left its rung";
    for (int r = 0; r < cfg.nranks; ++r) w->finalize_rank(r);
  }
}

TEST(QuietHelper, SleepsOnItsBellAndChargesNoRung) {
  // Nothing pending and no transport traffic: whatever the ladder says, a
  // helper's empty rounds go straight to the VCI's bell.
  for (const Ladder& l : kLadders) {
    SCOPED_TRACE(l.name);
    WorldConfig cfg;
    cfg.nranks = 4;
    cfg.ranks_per_node = 2;
    cfg.wait_spin = l.spin;
    cfg.wait_yield = l.yield;
    auto w = World::create(cfg);
    const Rungs vci_before = waited(*w);
    task::ProgressThread pt(w->null_stream(0));
    const auto give_up = std::chrono::steady_clock::now() + kPatience;
    while (pt.rungs().bell < 3 && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pt.stop();
    const auto r = pt.rungs();
    EXPECT_GE(r.bell, 3u);
    EXPECT_EQ(r.spin + r.yield + r.sleep, 0u);
    EXPECT_EQ(total(minus(waited(*w), vci_before)), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryWaiter, WaitLadder, ::testing::ValuesIn(kWaiters),
    [](const ::testing::TestParamInfo<Waiter>& info) {
      return std::string(info.param.name);
    });
