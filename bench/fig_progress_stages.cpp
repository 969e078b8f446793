// Progress dispatch cost: compiled stage-table loop vs the seed's
// hand-rolled if-ladder.
//
// The PR 5 refactor replaced the fixed five-branch progress ladder with a
// per-VCI table of ProgressSource stages scanned from a rotation cursor.
// This bench bounds what that indirection costs on the empty-engine fast
// path (the case wait loops hammer):
//
//   ladder0           transcription of the seed engine at 0 active stages:
//                     ranked recursive lock + hook-count gate + direct
//                     inlined dtype/coll/async/lmt checks + devirtualized
//                     poll of a real ShmTransport + the SEED Nic empty-poll
//                     body (clock read + cq/channel spinlock scans — the
//                     quiet-endpoint fast path the NIC has now is part of
//                     this PR, so the pre-PR competitor must not get it).
//   ladder0_fastnic   same ladder polling the current (fast-path) Nic: a
//                     hybrid that never shipped, kept to expose the pure
//                     dispatch overhead of the registry scan vs a
//                     hand-inlined ladder over identical stage bodies.
//   registry_active0  the real stream_progress on an idle 1-rank World
//                     (full stage table: dtype/async/shm/lmt/nic; the
//                     collective executor's coll-exec stage registers only
//                     in programs that link mpx::coll::ir).
//   registry_active1  same, plus 1 registered user source that is never
//                     idle (scan width grows by one).
//   registry_active5  same, with 5 such sources.
//
// Acceptance gate (ISSUE PR 5): registry_active0 <= ladder0 + 10% — the
// open pipeline may not cost more on the empty fast path than the closed
// engine it replaced. (It measures well under — roughly 2x faster: the
// per-source fast paths this PR added outweigh the table indirection
// several times over. The ladder0_fastnic delta shows the indirection
// alone: ~10-15ns for a six-stage scan, the price of two virtualized
// transport polls plus per-stage gate dispatch and counters.) CI's
// bench-smoke job also tracks
// registry_active0 against the trajectory baseline via
// scripts/bench_diff.py.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "mpx/base/clock.hpp"
#include "mpx/base/instrumented_mutex.hpp"
#include "mpx/net/nic.hpp"
#include "mpx/shm/shm_transport.hpp"

namespace {

using namespace mpx;

// --- seed-ladder replica -------------------------------------------------

class NopSink final : public transport::TransportSink {
 public:
  void on_msg(transport::Msg&&) override {}
  void on_send_complete(std::uint64_t) override {}
};

/// The per-call state the seed's progress_test touched on an empty pass,
/// with REAL transports so the ladder pays the same stage-body costs the
/// seed paid (Nic clock read, shm endpoint/channel scans) — the comparison
/// then isolates the dispatch structure, not the stage bodies.
struct LadderVci {
  // The seed wrapper's (rank, vci) -> Vci resolution: published table
  // length + slot pointer, two acquire loads.
  std::atomic<std::uint32_t> vci_count{1};
  std::atomic<LadderVci*> self{this};
  base::InstrumentedMutex mu;
  std::atomic<int> hook_count{0};
  std::deque<int> pack_q;      // dtype stage
  std::deque<int> coll_hooks;  // coll stage
  std::deque<int> asyncs;      // async stage
  std::deque<int> lmt;         // lmt stage
  base::SteadyClock clock;
  shm::ShmTransport shm{/*nranks=*/1, /*max_vcis=*/1, /*cells=*/64};
  net::Nic nic{/*nranks=*/1, /*max_vcis=*/1, net::CostModel{}, clock};
  // Seed-era Nic endpoint state: one send CQ and one (src=0) channel,
  // scanned under their spinlocks on EVERY poll (no pending-count gate).
  struct SeedTimed {
    double due = 0.0;
    std::uint64_t payload = 0;
  };
  base::Spinlock seed_cq_mu{"net:cq", base::LockRank::transport};
  std::deque<SeedTimed> seed_cq;
  base::Spinlock seed_ch_mu{"net:channel", base::LockRank::transport};
  std::deque<SeedTimed> seed_ch;
  NopSink sink;
  std::uint64_t progress_calls = 0;
  std::uint64_t stage_hits[5] = {};

  LadderVci() { mu.set_rank("bench-ladder-vci", base::LockRank::vci); }
};

/// Transcription of the seed's progress_test if-ladder (see the pre-PR 5
/// revision of src/core/progress.cpp): per-stage mask-bit tests, per-stage
/// empty checks, stage_hits bookkeeping on hit, real transports polled
/// through their concrete types (no virtual hop). noinline+noipa so the
/// call and its arguments stay opaque, like the real engine's entry point.
__attribute__((noinline, noipa)) int ladder_progress(LadderVci& vci_table,
                                                     int rank, int id,
                                                     unsigned mask,
                                                     bool seed_nic) {
  // The seed wrapper's stream.valid() and vci-id range expects().
  if (rank < 0 || id < 0) return 0;
  const std::uint32_t nv = vci_table.vci_count.load(std::memory_order_acquire);
  if (static_cast<std::uint32_t>(id) >= nv) return 0;
  LadderVci& v = *vci_table.self.load(std::memory_order_acquire);
  v.mu.lock();
  ++v.progress_calls;
  if (v.hook_count.load(std::memory_order_acquire) != 0) {
    // inbox drain (never taken at 0 active)
  }
  int made = 0;
  if ((mask & progress_dtype) != 0 && !v.pack_q.empty()) {
    made = 1;
    ++v.stage_hits[0];
  }
  if (made == 0 && (mask & progress_coll) != 0 && !v.coll_hooks.empty()) {
    made = 1;
    ++v.stage_hits[1];
  }
  if (made == 0 && (mask & progress_async) != 0 && !v.asyncs.empty()) {
    made = 1;
    ++v.stage_hits[2];
  }
  if (made == 0 && (mask & progress_shm) != 0) {
    v.shm.poll(0, 0, v.sink, &made);
    if (made == 0 && !v.lmt.empty()) made = 1;
    if (made != 0) ++v.stage_hits[3];
  }
  if (made == 0 && (mask & progress_net) != 0) {
    if (seed_nic) {
      // Transcription of the seed Nic::poll empty pass: unconditional
      // clock read, then due-entry scans of the send CQ and of each source
      // channel under their spinlocks.
      const double now = v.clock.now();
      {
        base::LockGuard<base::Spinlock> g(v.seed_cq_mu);
        if (!v.seed_cq.empty() && v.seed_cq.front().due <= now) made = 1;
      }
      {
        base::LockGuard<base::Spinlock> g(v.seed_ch_mu);
        if (!v.seed_ch.empty() && v.seed_ch.front().due <= now) made = 1;
      }
    } else {
      v.nic.poll(0, 0, v.sink, &made);
    }
    if (made != 0) ++v.stage_hits[4];
  }
  v.mu.unlock();
  return made;
}

// --- registry variants ---------------------------------------------------

/// A user stage that is never idle and never makes progress: each one adds
/// a full (mask test + idle + poll) step to every scan.
class BusyNopSource final : public core_detail::ProgressSource {
 public:
  const char* name() const override { return "bench-nop"; }
  unsigned mask_bit() const override { return progress_user; }
  bool idle(core_detail::Vci&) override { return false; }
  void poll(core_detail::Vci&, int*) override {}
};

std::shared_ptr<World> world_with_sources(int active) {
  WorldConfig cfg{.nranks = 1};
  for (int i = 0; i < active; ++i) {
    cfg.extra_sources.push_back([](World&) {
      return std::make_unique<BusyNopSource>();
    });
  }
  return World::create(cfg);
}

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
  const int iters = mpx_bench::smoke_run() ? 100'000 : 500'000;
  const int reps = mpx_bench::smoke_run() ? 9 : 15;
  std::printf("Progress dispatch cost, %d calls x %d reps/variant "
              "(empty engine, min estimator)\n%20s %12s\n",
              iters, reps, "variant", "ns_call");

  // All variants are built up front and their repetitions interleaved
  // round-robin, so a frequency or load shift mid-run hits every variant
  // alike instead of biasing whichever section it lands on. Per variant the
  // minimum over reps is reported (noise only ever adds time).
  LadderVci ladder;
  struct Variant {
    const char* name;
    std::function<void()> call;
    double best = 1e300;
  };
  std::vector<Variant> variants;
  variants.push_back(
      {"ladder0",
       [&] { (void)ladder_progress(ladder, 0, 0, progress_all, true); }});
  variants.push_back(
      {"ladder0_fastnic",
       [&] { (void)ladder_progress(ladder, 0, 0, progress_all, false); }});

  std::vector<std::shared_ptr<World>> worlds;
  std::vector<Stream> streams;
  streams.reserve(3);  // stable addresses for the captured pointers
  static const char* kRegNames[] = {"registry_active0", "registry_active1",
                                    "registry_active5"};
  const int actives[] = {0, 1, 5};
  for (int a = 0; a < 3; ++a) {
    worlds.push_back(world_with_sources(actives[a]));
    streams.push_back(worlds.back()->null_stream(0));
    Stream* s = &streams.back();
    variants.push_back({kRegNames[a], [s] { stream_progress(*s); }});
  }

  for (auto& v : variants) {
    for (int i = 0; i < iters / 10 + 1; ++i) v.call();  // warm-up
  }
  for (int r = 0; r < reps; ++r) {
    for (auto& v : variants) {
      const double ns = chunk_ns(v.call, iters);
      if (ns < v.best) v.best = ns;
    }
  }

  for (const auto& v : variants) {
    std::printf("%20s %12.2f\n", v.name, v.best);
    mpx_bench::json_emit("fig_progress_stages", v.name,
                         {{"ns_call", v.best},
                          {"iters", static_cast<double>(iters)}});
  }
  return 0;
}
