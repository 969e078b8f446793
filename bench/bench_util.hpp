// Shared benchmark helpers. The paper's metric (§4) is PROGRESS LATENCY:
// the mean elapsed time between a task's completion (its deadline) and the
// moment a progress poll observes it. Deadline dummy tasks (task/deadline)
// measure it directly. Wall-clock timing from google-benchmark is reported
// alongside, but the latency counters are the figures' y-axes.
#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <random>
#include <utility>

#include "mpx/base/stats.hpp"
#include "mpx/mpx.hpp"
#include "mpx/task/deadline.hpp"

namespace mpx_bench {

/// True when the harness should run a reduced iteration count (CI smoke
/// runs: `MPX_BENCH_SMOKE=1`). Trajectory capture wants the same bench
/// shape, just cheaper.
inline bool smoke_run() {
  const char* v = std::getenv("MPX_BENCH_SMOKE");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/// Append one record to the machine-readable perf-trajectory file.
///
/// Records are JSON Lines (one object per line) so several bench binaries
/// can append to the same file without coordinating. Emission is opt-in:
/// records go to the file MPX_BENCH_JSON names, and nothing is written
/// when it is unset, empty or "off" (a plain run never touches the
/// checked-in trajectory files).
inline void json_emit(
    const char* bench, const char* variant,
    std::initializer_list<std::pair<const char*, double>> metrics) {
  const char* path = std::getenv("MPX_BENCH_JSON");
  if (path == nullptr || *path == '\0' || std::strcmp(path, "off") == 0) {
    return;
  }
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fprintf(f, "{\"bench\":\"%s\",\"variant\":\"%s\"", bench, variant);
  for (const auto& [key, value] : metrics) {
    std::fprintf(f, ",\"%s\":%.6g", key, value);
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

/// Deterministic, decorrelated per-thread seeding. Benchmarks must be
/// reproducible run-to-run (no std::random_device), but adjacent raw seeds
/// (thread 0, 1, 2, ...) leave std::mt19937 streams briefly correlated;
/// splitmix64 scrambling gives well-separated streams from structured
/// (thread, iteration) coordinates while staying a pure function of them.
inline std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b = 0,
                              std::uint64_t c = 0) {
  std::uint64_t z = 0x9e3779b97f4a7c15ull + a * 0xbf58476d1ce4e5b9ull +
                    b * 0x94d049bb133111ebull + c * 0xd6e8feb86659fd93ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// mt19937 for (thread, iteration) of a named experiment.
inline std::mt19937 thread_rng(std::uint64_t experiment, int thread,
                               std::uint64_t iteration = 0) {
  return std::mt19937{static_cast<std::mt19937::result_type>(
      mix_seed(experiment, static_cast<std::uint64_t>(thread), iteration))};
}

/// Attach a latency summary to the benchmark's counter set.
inline void report_latency(benchmark::State& state,
                           const mpx::base::LatencyRecorder& rec) {
  const auto s = rec.summarize();
  state.counters["lat_mean_us"] = s.trimmed_mean_us;  // robust mean (99%)
  state.counters["lat_mean_raw_us"] = s.mean_us;
  state.counters["lat_p50_us"] = s.p50_us;
  state.counters["lat_p99_us"] = s.p99_us;
  state.counters["samples"] = static_cast<double>(s.count);
}

/// One batch of the paper's §4.1 experiment: launch `n` dummy tasks with
/// deadlines uniform in (0, horizon_s], then spin stream progress until all
/// complete, recording observation latency per task.
inline void run_dummy_batch(mpx::World& world, const mpx::Stream& stream,
                            int n, double horizon_s,
                            mpx::base::LatencyRecorder& rec,
                            std::mt19937& rng) {
  std::uniform_real_distribution<double> dist(horizon_s * 1e-3, horizon_s);
  std::atomic<int> counter{n};
  const double now = world.wtime();
  for (int i = 0; i < n; ++i) {
    mpx::task::add_dummy_task_abs(stream, now + dist(rng), &counter, &rec);
  }
  while (counter.load(std::memory_order_relaxed) > 0) {
    mpx::stream_progress(stream);
  }
}

}  // namespace mpx_bench
