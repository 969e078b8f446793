// Figure 9: "Latency overhead in microseconds as the number of concurrent
// progress threads increases. Each measurement runs 10 concurrent pending
// tasks." All threads progress the SAME default stream (MPIX_STREAM_NULL),
// so they serialize on one VCI lock; observed latency grows with the thread
// count, and the lock's contended-acquire counter shows why.
//
// NOTE: this container exposes a single CPU core, so the absolute latencies
// also include timeslicing. The lock counters (acquires vs contended) give
// the scheduling-independent evidence; compare with fig11, where private
// streams drive contended acquisitions to zero.
#include <thread>
#include <vector>

#include "bench_util.hpp"

namespace {

void BM_ThreadContentionSharedStream(benchmark::State& state) {
  const int n_threads = static_cast<int>(state.range(0));
  constexpr int kTasksPerThread = 10;
  auto world = mpx::World::create(mpx::WorldConfig{.nranks = 1});
  // One recorder per thread's tasks, merged after the run: a shared
  // recorder's mutex would serialize exactly the threads whose contention
  // this figure measures. (On the shared stream any thread may complete a
  // task; it records into the recorder of the thread that started it.)
  std::vector<mpx::base::LatencyRecorder> recs(
      static_cast<std::size_t>(n_threads));
  std::uint64_t contended0 = 0, acquires0 = 0;

  // Experiment tag for deterministic seeding: fig09 = 9. Each (thread,
  // iteration) pair gets its own decorrelated-but-reproducible stream, so
  // repeated iterations don't replay identical deadline patterns yet two
  // runs of the binary measure exactly the same workload.
  std::uint64_t iteration = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n_threads));
    for (int t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t, iteration] {
        const mpx::Stream stream = world->null_stream(0);
        std::mt19937 rng = mpx_bench::thread_rng(/*experiment=*/9, t,
                                                 iteration);
        mpx_bench::run_dummy_batch(*world, stream, kTasksPerThread, 2e-3,
                                   recs[static_cast<std::size_t>(t)], rng);
      });
    }
    for (auto& th : threads) th.join();
    ++iteration;
  }
  const auto ls = world->vci_lock_stats(0, 0);
  acquires0 = ls.acquires;
  contended0 = ls.contended;
  mpx::base::LatencyRecorder rec;
  for (const auto& r : recs) rec.merge(r);
  mpx_bench::report_latency(state, rec);
  state.counters["lock_acquires"] = static_cast<double>(acquires0);
  state.counters["lock_contended"] = static_cast<double>(contended0);
  state.counters["contended_pct"] =
      acquires0 == 0 ? 0.0
                     : 100.0 * static_cast<double>(contended0) /
                           static_cast<double>(acquires0);
}

}  // namespace

BENCHMARK(BM_ThreadContentionSharedStream)
    ->DenseRange(1, 8, 1)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05)
    ->UseRealTime();

BENCHMARK_MAIN();
