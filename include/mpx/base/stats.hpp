// mpx/base/stats.hpp
//
// Latency accounting used by the benchmark harness and the examples: the
// paper's metric is "progress latency", the elapsed time between a task's
// completion and when user code observes it (§4). LatencyRecorder collects
// samples in seconds and reports microsecond summaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace mpx::base {

/// Summary of a latency sample set, in microseconds.
struct LatencySummary {
  std::size_t count = 0;
  double mean_us = 0.0;
  /// Mean of the lowest 99% of samples: robust to OS-scheduler outliers on
  /// oversubscribed machines (see EXPERIMENTS.md single-core note).
  double trimmed_mean_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double stddev_us = 0.0;
};

/// Thread-safe sample collector. add() is lock-guarded (recording happens in
/// poll callbacks whose frequency is bounded by progress-call rate, so a
/// short lock is acceptable and keeps summaries exact).
class LatencyRecorder {
 public:
  /// Record one sample, in seconds.
  void add(double seconds);

  /// Record one sample, in microseconds.
  void add_us(double us) { add(us * 1e-6); }

  std::size_t count() const;
  void clear();

  /// Append every sample of `other` (threads that record into their own
  /// recorder are merged after join, so recording never serializes them).
  void merge(const LatencyRecorder& other);

  /// Compute the summary (sorts a copy of the samples).
  LatencySummary summarize() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;  // seconds
};

/// Counters of one freelist pool (base/pool.hpp), InstrumentedMutex-style:
/// read them to see whether the hot path is actually recycling. An acquire
/// served from the freelist is a `hit`; one that fell through to the global
/// allocator is a `miss`. `overflow` counts releases dropped to the
/// allocator because the freelist was at capacity (cap too small), `live`
/// is objects currently handed out, and `free_count` is parked storage.
struct PoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t overflow = 0;
  std::size_t live = 0;
  std::size_t free_count = 0;
};

/// Streaming mean/variance (Welford) for cheap single-threaded accumulation.
class MeanAccumulator {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace mpx::base
