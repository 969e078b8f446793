// Helpers of the mpx_suite driver: seeded payloads, sample statistics,
// span tracing, layer-counter snapshots and JSONL metric records.
//
// Everything here is measured from outside the library: spans are opened
// and closed in the driver around calls into a layer's public functions,
// and counters are read through the public observability accessors.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "mpx/base/pool.hpp"
#include "mpx/coll/ir.hpp"
#include "mpx/mpx.hpp"
#include "mpx/net/nic.hpp"
#include "mpx/shm/shm_transport.hpp"
#include "mpx/task/progress_engine.hpp"

namespace mpx_suite {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by every thread of the process so far.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// splitmix64 over structured coordinates: every payload word and every
/// reduction input is a pure function of (seed, who, which, where).
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0,
                         std::uint64_t c = 0, std::uint64_t d = 0) {
  std::uint64_t z = 0x9e3779b97f4a7c15ull + a * 0xbf58476d1ce4e5b9ull +
                    b * 0x94d049bb133111ebull + c * 0xd6e8feb86659fd93ull +
                    d * 0xa0761d6478bd642full;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A seeded byte pattern whose "stamp" words change with every operation,
/// so a stale or misrouted buffer never passes the byte-for-byte check.
/// Stamps sit at offset 0 and every kStride bytes after it.
class StampedPayload {
 public:
  static constexpr std::size_t kStride = 4096;

  StampedPayload(std::uint64_t seed, std::uint64_t owner, std::size_t bytes)
      : seed_(seed), owner_(owner), bytes_(bytes), data_(bytes) {
    for (std::size_t off = 0; off < bytes_; off += 8) {
      const std::uint64_t w = mix(seed_, owner_, ~std::uint64_t{0}, off);
      std::memcpy(data_.data() + off, &w, std::min<std::size_t>(8, bytes_ - off));
    }
  }

  /// Rewrite the stamps for operation `op`.
  void stamp(std::uint64_t op) {
    for (std::size_t off = 0; off < bytes_; off += kStride) {
      const std::uint64_t w = mix(seed_, owner_, op, off + 1);
      std::memcpy(data_.data() + off, &w, std::min<std::size_t>(8, bytes_ - off));
    }
  }

  std::byte* data() { return data_.data(); }
  bool matches(const std::byte* got) const {
    return std::memcmp(got, data_.data(), bytes_) == 0;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t owner_;
  std::size_t bytes_;
  std::vector<std::byte> data_;
};

/// Nearest-rank quantile of `v` (0 when empty). Reorders `v`.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  auto k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------- spans --

/// One traced interval. `parent` indexes the same thread's log (-1 for an
/// op span); `op` is the thread-local id of the op the span belongs to.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint32_t op;
};

/// Per-thread, in-memory span log. Single writer, read after the phase's
/// barrier. When disabled, every call is one predictable branch, so the
/// untraced phases run the same code as the traced one.
class SpanLog {
 public:
  /// Enable for a phase. An op is traced only if `per_op` slots remain,
  /// so no op is ever recorded partially.
  void enable(std::size_t cap, std::size_t per_op) {
    spans_.clear();
    spans_.reserve(cap);
    cap_ = cap;
    per_op_ = per_op;
    on_ = true;
    ops_ = 0;
  }
  void disable() { on_ = false; }

  /// Open the op span at `t` (the op's own start timestamp).
  void begin_op(std::int64_t t) {
    cur_ = -1;
    if (!on_ || spans_.size() + per_op_ > cap_) return;
    cur_ = push("op", t);
  }
  void end_op(std::int64_t t) {
    if (cur_ < 0) return;
    spans_[static_cast<std::size_t>(cur_)].end_ns = t;
    cur_ = -1;
    ++ops_;
  }

  /// Child spans: recorded only inside a traced op.
  std::int32_t open(const char* name) {
    if (cur_ < 0) return -1;
    const std::int32_t idx = push(name, now_ns());
    cur_ = idx;
    return idx;
  }
  void close(std::int32_t idx) {
    if (idx < 0) return;
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end_ns = now_ns();
    cur_ = s.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int32_t push(const char* name, std::int64_t t) {
    spans_.push_back(Span{name, t, t, cur_, ops_});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  std::vector<Span> spans_;
  std::size_t cap_ = 0;
  std::size_t per_op_ = 0;
  bool on_ = false;
  std::int32_t cur_ = -1;
  std::uint32_t ops_ = 0;
};

/// RAII child span around one call into a layer.
class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), idx_(log.open(name)) {}
  ~Scope() { log_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t idx_;
};

/// Per-span-name aggregates over a set of logs: durations and self time
/// (a span's duration minus the time its direct children cover; spans of
/// one thread nest strictly, so children never overlap).
struct SpanSummary {
  std::map<std::string, std::vector<double>> dur_ns;
  std::map<std::string, double> self_ns;
  double op_ns = 0.0;
};

inline void summarize_spans(const std::vector<Span>& spans, SpanSummary& out) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      self[static_cast<std::size_t>(spans[i].parent)] -=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    out.dur_ns[s.name].push_back(d);
    out.self_ns[s.name] += self[i];
    if (s.parent < 0) out.op_ns += d;
  }
}

/// Append the leading whole ops of `log`, about `max_spans` spans, to a
/// JSONL trace file, times relative to `t0`.
inline void write_spans(std::FILE* f, int thread, const SpanLog& log,
                        std::int64_t t0, std::size_t max_spans) {
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i >= max_spans && s.parent < 0) break;
    std::fprintf(f,
                 "{\"thread\":%d,\"op\":%u,\"id\":%zu,\"parent\":%d,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 thread, s.op, i, s.parent, s.name,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
}

// ------------------------------------------------------------- counters --

/// Every public layer counter the suite reads, summed over the (rank, vci)
/// endpoints a workload uses. Monotonic: subtract two snapshots.
struct Counters {
  struct Stage {
    std::uint64_t calls = 0;
    std::uint64_t hits = 0;
  };
  std::map<std::string, Stage> stages;
  std::uint64_t progress_calls = 0;
  std::uint64_t lock_acquires = 0;
  std::uint64_t lock_contended = 0;
  std::uint64_t rung_spin = 0;
  std::uint64_t rung_yield = 0;
  std::uint64_t rung_sleep = 0;
  mpx::shm::ShmStats shm;
  std::uint64_t shm_backlogged = 0;
  mpx::net::NicStats nic;
  mpx::coll::ir::CacheStats cache;
  std::map<std::string, mpx::base::PoolStats> pools;
  mpx::task::ProgressEngine::Stats engine;
};

struct Endpoint {
  int rank;
  int vci;
};

inline Counters snapshot(mpx::World& w, const std::vector<Endpoint>& eps,
                         const mpx::Comm* coll_comm,
                         const mpx::task::ProgressEngine* engine) {
  Counters c;
  for (const Endpoint& e : eps) {
    for (const auto& row : w.vci_stage_table(e.rank, e.vci)) {
      c.stages[row.name].calls += row.calls;
      c.stages[row.name].hits += row.hits;
    }
    c.progress_calls += w.vci_progress_calls(e.rank, e.vci);
    const auto ls = w.vci_lock_stats(e.rank, e.vci);
    c.lock_acquires += ls.acquires;
    c.lock_contended += ls.contended;
    const auto rungs = w.vci_wait_rungs(e.rank, e.vci);
    c.rung_spin += rungs.spin;
    c.rung_yield += rungs.yield;
    c.rung_sleep += rungs.sleep;
  }
  if (auto* t = w.find_transport("shm")) {
    c.shm = static_cast<mpx::shm::ShmTransport*>(t)->stats();
    c.shm_backlogged = t->transport_stats().backlogged;
  }
  if (auto* t = w.find_transport("nic")) {
    c.nic = static_cast<mpx::net::Nic*>(t)->stats();
  }
  if (coll_comm != nullptr) c.cache = mpx::coll::ir::cache_stats(*coll_comm);
  for (const auto& p : mpx::base::pool_registry_snapshot()) {
    c.pools[p.name] = p.stats;
  }
  if (engine != nullptr) c.engine = engine->stats();
  return c;
}

using MetricMap = std::map<std::string, double>;

/// Per-layer counter metrics over the interval [a, b] in which `ops`
/// workload ops ran. A ratio whose layer saw no traffic reads 0.
inline void counter_metrics(const Counters& a, const Counters& b, double ops,
                            MetricMap& m) {
  auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  double stage_hits = 0.0;
  for (const char* name : {"shm", "lmt", "nic", "coll-exec", "async"}) {
    const auto ia = a.stages.find(name);
    const auto ib = b.stages.find(name);
    double calls = 0.0;
    double hits = 0.0;
    if (ib != b.stages.end()) {
      const Counters::Stage before =
          ia != a.stages.end() ? ia->second : Counters::Stage{};
      calls = d(before.calls, ib->second.calls);
      hits = d(before.hits, ib->second.hits);
    }
    m[std::string("core.stage.") + name + ".hit_ratio"] = ratio(hits, calls);
  }
  for (const auto& [name, st] : b.stages) {
    const auto ia = a.stages.find(name);
    stage_hits += d(ia != a.stages.end() ? ia->second.hits : 0, st.hits);
  }
  const double calls = d(a.progress_calls, b.progress_calls);
  m["core.progress.calls_per_op"] = ratio(calls, ops);
  m["core.progress.hit_ratio"] = ratio(stage_hits, calls);
  m["core.vci_lock.contended_ratio"] =
      ratio(d(a.lock_contended, b.lock_contended),
            d(a.lock_acquires, b.lock_acquires));
  m["core.wait.rung_spin"] = ratio(d(a.rung_spin, b.rung_spin), ops);
  m["core.wait.rung_yield"] = ratio(d(a.rung_yield, b.rung_yield), ops);
  m["core.wait.rung_sleep"] = ratio(d(a.rung_sleep, b.rung_sleep), ops);

  m["shm.inline_ratio"] = ratio(d(a.shm.inline_payload_hits,
                                  b.shm.inline_payload_hits),
                                d(a.shm.sends, b.shm.sends));
  m["shm.batch_ratio"] = ratio(d(a.shm.batched_deliveries,
                                 b.shm.batched_deliveries),
                               d(a.shm.delivered, b.shm.delivered));
  m["shm.ring_full"] = ratio(d(a.shm.ring_full_events, b.shm.ring_full_events),
                             ops);
  m["shm.backlogged"] = ratio(d(a.shm_backlogged, b.shm_backlogged), ops);

  m["net.msgs_per_op"] = ratio(d(a.nic.injected, b.nic.injected), ops);
  m["net.cq_events_per_op"] = ratio(d(a.nic.cq_events, b.nic.cq_events), ops);

  m["coll.cache.hit_ratio"] =
      ratio(d(a.cache.hits, b.cache.hits),
            d(a.cache.hits + a.cache.misses, b.cache.hits + b.cache.misses));
  m["coll.scratch.hit_ratio"] =
      ratio(d(a.cache.scratch_hits, b.cache.scratch_hits),
            d(a.cache.scratch_hits + a.cache.scratch_misses,
              b.cache.scratch_hits + b.cache.scratch_misses));

  m["task.engine.promotions"] = d(a.engine.promotions, b.engine.promotions);
  m["task.engine.demotions"] = d(a.engine.demotions, b.engine.demotions);
  m["task.engine.steals"] = d(a.engine.steals, b.engine.steals);
  double polls = 0.0;
  double hits = 0.0;
  for (std::size_t i = 0; i < b.engine.vcis.size(); ++i) {
    const auto& vb = b.engine.vcis[i];
    const bool had = i < a.engine.vcis.size();
    polls += d(had ? a.engine.vcis[i].engine_polls : 0, vb.engine_polls);
    hits += d(had ? a.engine.vcis[i].engine_hits : 0, vb.engine_hits);
  }
  m["task.engine.hit_ratio"] = ratio(hits, polls);
  m["task.engine.worker_sleep"] =
      ratio(d(a.engine.worker_rungs.sleep, b.engine.worker_rungs.sleep), ops);

  for (const char* name : {"request", "async-thing", "payload", "coll-cursor"}) {
    const auto ia = a.pools.find(name);
    const auto ib = b.pools.find(name);
    double h = 0.0;
    double total = 0.0;
    if (ib != b.pools.end()) {
      const mpx::base::PoolStats before =
          ia != a.pools.end() ? ia->second : mpx::base::PoolStats{};
      h = d(before.hits, ib->second.hits);
      total = h + d(before.misses, ib->second.misses);
    }
    m[std::string("base.pool.") + name + ".hit_ratio"] = ratio(h, total);
  }
}

// -------------------------------------------------------------- output --

/// One JSONL metric record in the repository's bench schema.
inline void emit(const char* variant, const std::string& metric,
                 const char* unit, double value, std::uint64_t n) {
  std::printf(
      "{\"bench\":\"mpx_suite\",\"variant\":\"%s\",\"metric\":\"%s\","
      "\"unit\":\"%s\",\"value\":%.17g,\"n\":%llu}\n",
      variant, metric.c_str(), unit, value, static_cast<unsigned long long>(n));
}

}  // namespace mpx_suite
