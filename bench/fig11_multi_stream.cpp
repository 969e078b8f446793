// Figure 11: "Latency versus the number of concurrent progress threads
// using different MPIX streams. Each measurement runs 10 concurrent pending
// tasks." Identical workload to fig09, but each thread creates its own
// MPIX_Stream (Listing 1.5): private VCIs mean private locks, so contended
// lock acquisitions drop to zero and latency stays flat (modulo the single-
// core timeslicing documented in EXPERIMENTS.md).
#include <thread>
#include <vector>

#include "bench_util.hpp"

namespace {

void BM_MultiStreamThreads(benchmark::State& state) {
  const int n_threads = static_cast<int>(state.range(0));
  constexpr int kTasksPerThread = 10;
  mpx::WorldConfig cfg;
  cfg.nranks = 1;
  cfg.max_vcis = 16;
  auto world = mpx::World::create(cfg);
  // One recorder per thread, merged after the run: a shared recorder's
  // mutex would serialize exactly the threads whose contention this
  // figure measures.
  std::vector<mpx::base::LatencyRecorder> recs(
      static_cast<std::size_t>(n_threads));

  std::vector<mpx::Stream> streams;
  streams.reserve(static_cast<std::size_t>(n_threads));
  for (int t = 0; t < n_threads; ++t) {
    streams.push_back(world->stream_create(0));
  }

  // Deterministic decorrelated per-(thread, iteration) seeds; experiment
  // tag fig11 = 11 (distinct from fig09's, as with the original seed
  // bases: the figures contrast lock behaviour, not identical workloads).
  std::uint64_t iteration = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n_threads));
    for (int t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t, iteration] {
        std::mt19937 rng = mpx_bench::thread_rng(/*experiment=*/11, t,
                                                 iteration);
        mpx_bench::run_dummy_batch(*world, streams[static_cast<std::size_t>(t)],
                                   kTasksPerThread, 2e-3,
                                   recs[static_cast<std::size_t>(t)], rng);
      });
    }
    for (auto& th : threads) th.join();
    ++iteration;
  }
  std::uint64_t contended = 0, acquires = 0;
  for (int t = 0; t < n_threads; ++t) {
    const auto ls = world->vci_lock_stats(
        0, streams[static_cast<std::size_t>(t)].vci());
    contended += ls.contended;
    acquires += ls.acquires;
  }
  for (auto& s : streams) world->stream_free(s);
  mpx::base::LatencyRecorder rec;
  for (const auto& r : recs) rec.merge(r);
  mpx_bench::report_latency(state, rec);
  state.counters["lock_acquires"] = static_cast<double>(acquires);
  state.counters["lock_contended"] = static_cast<double>(contended);
}

}  // namespace

BENCHMARK(BM_MultiStreamThreads)
    ->DenseRange(1, 8, 1)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05)
    ->UseRealTime();

BENCHMARK_MAIN();
