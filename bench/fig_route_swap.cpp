// Route-lookup cost and topology-swap latency (PR 10's control-plane /
// datapath split).
//
// The refactor moved routing from a World-frozen table to an RCU-published
// TopologySnapshot: the datapath pays ONE acquire-load per poll/send
// (TopoRef) and then O(1) tagged-pointer decodes; the control plane pays a
// fence -> drain -> cutover cycle (two publications, each with a grace
// period over every live VCI) per swap. This bench bounds both sides:
//
//   route_cold    World::route(src, dst): the unpinned lookup — one
//                 acquire-load of the handle + one tagged decode per call.
//                 This is the worst case a datapath section could pay if it
//                 re-acquired per lookup (it does not; see route_pinned).
//   route_pinned  the datapath's real amortization: one acquire-load
//                 (TopoRef pin) per simulated poll section, then 64
//                 carrier() decodes through the pinned snapshot. Reported
//                 per lookup, so the delta to route_cold is the acquire
//                 the pin saves on all but the first lookup.
//   swap_idle     one full swap_topology_for_test cycle on an idle 4-rank
//                 world, alternating nic <-> shm so every swap publishes a
//                 different carrier: 2 snapshot builds + 2 publications +
//                 2 grace periods (8 VCIs quiesced) + the empty drain.
//
// CI's bench-smoke job tracks route_cold/route_pinned (ns) and swap_idle
// (us) against BENCH_pr10.json via scripts/bench_diff.py: route decode is
// on the per-message path, so a regression there is a datapath regression.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "mpx/core/topology.hpp"
#include "src/core/test_hooks.hpp"

namespace {

using namespace mpx;

/// One timed chunk of `iters` calls.
template <typename F>
double chunk_ns(F&& f, int iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) f();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count() * 1e9 / iters;
}

}  // namespace

int main() {
  const bool smoke = mpx_bench::smoke_run();
  const int iters = smoke ? 100'000 : 500'000;
  const int reps = smoke ? 9 : 15;
  const int swap_chunk = smoke ? 20 : 100;  // swaps per timed chunk

  WorldConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 2;  // pair (0,1) same-node: shm <-> nic swappable
  auto w = World::create(cfg);
  transport::Transport* shm = w->find_transport("shm");
  transport::Transport* nic = w->find_transport("nic");

  std::printf("Route lookup + topology swap, min estimator over %d reps\n",
              reps);

  // --- route_cold: acquire-load + decode per call ------------------------
  double cold_best = 1e300;
  const auto cold = [&] {
    transport::Transport* t = &w->route(0, 1);
    benchmark::DoNotOptimize(t);
  };
  for (int i = 0; i < iters / 10 + 1; ++i) cold();  // warm-up
  for (int r = 0; r < reps; ++r) {
    const double ns = chunk_ns(cold, iters);
    if (ns < cold_best) cold_best = ns;
  }

  // --- route_pinned: one pin, 64 decodes (the TopoRef amortization) ------
  const core_detail::TopologyHandle& h = w->topology();
  double pinned_best = 1e300;
  const auto pinned = [&] {
    const core_detail::TopologySnapshot* s = h.acquire();  // the ONE load
    for (int d = 0; d < 64; ++d) {
      transport::Transport* t = s->carrier(d & 3, (d + 1) & 3);
      benchmark::DoNotOptimize(t);
    }
  };
  for (int i = 0; i < iters / 640 + 1; ++i) pinned();
  for (int r = 0; r < reps; ++r) {
    const double ns = chunk_ns(pinned, iters / 64 + 1) / 64.0;
    if (ns < pinned_best) pinned_best = ns;
  }

  // --- swap_idle: full fence -> drain -> cutover cycle -------------------
  double swap_best = 1e300;
  bool to_nic = true;
  const auto swap = [&] {
    core_detail::swap_topology_for_test(*w, 0, 1, to_nic ? *nic : *shm);
    to_nic = !to_nic;
  };
  swap();  // warm-up (and leaves the alternation mid-cycle, which is fine)
  for (int r = 0; r < reps; ++r) {
    const double ns = chunk_ns(swap, swap_chunk);
    if (ns < swap_best) swap_best = ns;
  }

  for (int r = 0; r < 4; ++r) w->finalize_rank(r);

  std::printf("%16s %12.2f ns/call\n", "route_cold", cold_best);
  std::printf("%16s %12.2f ns/lookup\n", "route_pinned", pinned_best);
  std::printf("%16s %12.2f us/swap\n", "swap_idle", swap_best / 1e3);
  mpx_bench::json_emit("fig_route_swap", "route_cold",
                       {{"ns_call", cold_best},
                        {"iters", static_cast<double>(iters)}});
  mpx_bench::json_emit("fig_route_swap", "route_pinned",
                       {{"ns_lookup", pinned_best},
                        {"iters", static_cast<double>(iters)}});
  mpx_bench::json_emit("fig_route_swap", "swap_idle",
                       {{"us_swap", swap_best / 1e3},
                        {"swaps", static_cast<double>(swap_chunk * reps)}});
  return 0;
}
