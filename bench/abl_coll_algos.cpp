// Ablation: collective algorithm choices the paper's §2.7 motivates letting
// users experiment with — the whole point of interoperable progress is that
// algorithm variants like these can be built and swapped OUTSIDE the
// runtime core. Every collective runs as a compiled schedule; this bench
// times each kind on the simulated fabric (8 ranks, one per node) at 64,
// 4096 and 262144 int32 elements per rank:
//
//   barrier, allgather, alltoall, gather, scan — one algorithm each
//   bcast:     knomial tree vs knomial scatter + ring allgather
//   allreduce: recursive doubling vs ring reduce-scatter + allgather
//
// The forced pairs use ir::Opts{algo}; MPX_COLL_ALGO forces the same
// choice process-wide. Expectation for the pairs: tree/doubling wins on
// small payloads (latency bound), scatter/ring wins on large ones
// (bandwidth bound).
#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "mpx/coll/coll.hpp"
#include "mpx/coll/ir.hpp"
#include "mpx/mpx.hpp"

namespace {

using namespace mpx;
namespace ir = mpx::coll::ir;

constexpr int kRanks = 8;

enum Case : int {
  kBarrier,
  kAllgather,
  kAlltoall,
  kGather,
  kScan,
  kBcastKnomial,
  kBcastScatterAg,
  kAllreduceRd,
  kAllreduceRing,
  kCases,
};

const char* case_name(int c) {
  switch (c) {
    case kBarrier: return "barrier";
    case kAllgather: return "allgather";
    case kAlltoall: return "alltoall";
    case kGather: return "gather";
    case kScan: return "scan";
    case kBcastKnomial: return "bcast_knomial";
    case kBcastScatterAg: return "bcast_scatter_ag";
    case kAllreduceRd: return "allreduce_rd";
    case kAllreduceRing: return "allreduce_ring";
  }
  return "?";
}

/// One collective call for rank `c.rank()` over per-rank buffers `in`
/// (elems * kRanks elements) and `out` (the same).
Request launch(int which, std::size_t elems, std::int32_t* in,
               std::int32_t* out, const Comm& c) {
  const auto dt = dtype::Datatype::int32();
  const auto sum = dtype::ReduceOp::sum;
  switch (which) {
    case kBarrier: return coll::ibarrier(c);
    case kAllgather: return coll::iallgather(in, elems, dt, out, c);
    case kAlltoall: return coll::ialltoall(in, elems, dt, out, c);
    case kGather: return coll::igather(in, elems, dt, out, 0, c);
    case kScan: return coll::iscan(in, out, elems, dt, sum, c);
    case kBcastKnomial:
      return ir::ibcast(out, elems, dt, 0, c, ir::Opts{ir::Algo::knomial});
    case kBcastScatterAg:
      return ir::ibcast(out, elems, dt, 0, c, ir::Opts{ir::Algo::scatter_ag});
    case kAllreduceRd:
      return ir::iallreduce(in, out, elems, dt, sum, c, ir::Opts{ir::Algo::rd});
    default:
      return ir::iallreduce(in, out, elems, dt, sum, c,
                            ir::Opts{ir::Algo::ring});
  }
}

double run_collective(World& world, int reps, int which, std::size_t elems,
                      std::vector<std::vector<std::int32_t>>& in,
                      std::vector<std::vector<std::int32_t>>& out) {
  std::vector<std::thread> threads;
  double elapsed = 0.0;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      Comm comm = world.comm_world(r);
      const Stream s = comm.stream();
      const auto ur = static_cast<std::size_t>(r);
      const auto once = [&] {
        Request req = launch(which, elems, in[ur].data(), out[ur].data(),
                             comm);
        while (!req.is_complete()) {
          stream_progress(s);
          std::this_thread::yield();
        }
      };
      once();  // compile (and cache) outside the timed loop
      coll::barrier(comm);
      const double t0 = world.wtime();
      for (int rep = 0; rep < reps; ++rep) once();
      if (r == 0) elapsed = (world.wtime() - t0) / reps;
      world.finalize_rank(r);
    });
  }
  for (auto& t : threads) t.join();
  return elapsed * 1e6;  // us per op
}

void BM_Coll(benchmark::State& state) {
  const auto which = static_cast<int>(state.range(0));
  const auto elems = static_cast<std::size_t>(state.range(1));
  WorldConfig cfg;
  cfg.nranks = kRanks;
  cfg.ranks_per_node = 1;
  std::vector<std::vector<std::int32_t>> in(kRanks), out(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    in[static_cast<std::size_t>(r)].assign(elems * kRanks, r);
    out[static_cast<std::size_t>(r)].assign(elems * kRanks, 0);
  }
  double us = 0;
  for (auto _ : state) {
    auto world = World::create(cfg);
    us = run_collective(*world, 5, which, elems, in, out);
  }
  state.counters["us_per_op"] = us;
  state.counters["bytes"] = static_cast<double>(elems * 4);
  state.SetLabel(case_name(which));
}

void CaseArgs(benchmark::internal::Benchmark* b) {
  b->Args({kBarrier, 0});
  for (int c = kAllgather; c < kCases; ++c) {
    for (std::int64_t elems : {64, 4096, 262144}) b->Args({c, elems});
  }
}

}  // namespace

BENCHMARK(BM_Coll)->Apply(CaseArgs)->Iterations(2)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
