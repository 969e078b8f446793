// Overlap-at-scale benchmark for the adaptive progress engine (PR 9).
//
// Two computation/communication-overlap workloads, three progress
// strategies, metric = end-to-end MAKESPAN (wall time until every rank
// finished):
//
//   halo     — 2-rank halo exchange: each iteration posts a persistent-
//              shaped irecv/isend pair of LMT-sized halos, "computes",
//              then completes the exchange.
//   pipeline — rank 1 streams K chunks to rank 0; rank 0 gates them
//              through a TaskGraph whose nodes are released by
//              MPIX_Continue-style continuations (task/graph.hpp +
//              ext/continue.hpp), while its host thread computes.
//
// Strategies:
//   inline    — ranks call wait()/graph.wait() after compute: the
//               application drives all progress itself, so the LMT copies
//               serialize after the compute phase (Fig. 4c shape).
//   dedicated — one static ProgressThread per rank, the classic always-on
//               async-progress thread. Idle polls descend the same
//               MPX_WAIT_* spin/yield/sleep ladder as the engine's threads:
//               on an oversubscribed core a helper that never backs off
//               hogs whole scheduler timeslices and starves the ranks
//               themselves, so both strategies idle the same way and differ
//               only in who decides when a helper runs.
//   adaptive  — task::ProgressEngine attached to both ranks' streams; the
//               controller promotes/demotes online.
//
// Compute is modeled as an OFFLOADED kernel: the host thread sleeps for
// the compute duration (device busy, host core idle). That is the regime
// where background progress pays at all — on this single-core CI
// container a host-busy compute loop would serialize everything no matter
// who polls, conflating core availability with the progress question the
// engine answers. The offload shape isolates the latter: during compute
// the core is free, and the only question is whether anybody uses it to
// move the halos.
//
// After the adaptive workload the bench parks: the engine must demote
// everything back to inline and its pollers must reach the wait ladder's
// sleep rung (idle_sleep_delta > 0 in the JSON) — adaptivity's other half
// is NOT burning a core when the work disappears.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "mpx/ext/continue.hpp"
#include "mpx/mpx.hpp"
#include "mpx/task/graph.hpp"
#include "mpx/task/progress_engine.hpp"
#include "mpx/task/progress_thread.hpp"

namespace {

using namespace mpx;
using Clock = std::chrono::steady_clock;

enum class Strategy { inline_poll, dedicated, adaptive };

const char* name_of(Strategy s) {
  switch (s) {
    case Strategy::inline_poll: return "inline";
    case Strategy::dedicated: return "dedicated";
    case Strategy::adaptive: return "adaptive";
  }
  return "?";
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Offloaded compute: the host core is idle for `us` (kernel running on
/// the device).
void offloaded_compute(int us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// Completion wait WITHOUT driving progress: the rank only naps and checks
/// the completion flag — whoever owns progress for this VCI must move the
/// data. (The inline strategy never calls this; it uses polling waits.)
void idle_wait(std::vector<Request*> reqs) {
  for (;;) {
    bool all = true;
    for (Request* r : reqs) all = all && r->is_complete();
    if (all) return;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

/// Spin barrier for aligning rank start lines (2 participants, reusable).
struct StartGate {
  std::atomic<int> arrived{0};
  void wait(int parties) {
    arrived.fetch_add(1, std::memory_order_acq_rel);
    while (arrived.load(std::memory_order_acquire) < parties) {
      std::this_thread::yield();
    }
  }
};

WorldConfig overlap_config() {
  WorldConfig cfg{.nranks = 2};
  // 1 MiB halos over the 64 KiB eager cutover: every message is an LMT
  // rendezvous whose receiver-side chunk copies are the comm work a
  // progress engine can overlap with compute.
  cfg.shm_lmt_chunk = 128 * 1024;
  // Reactive controller so the promotion ramp amortizes even in smoke
  // runs; MPX_ENGINE_MAX_WORKERS stays at its default.
  cfg.progress_engine.epoch_us = 200;
  // Dedicate eagerly (MPX_ENGINE_DEDICATE_RATE): epoch hit rates here top
  // out around 0.1-0.3 because polls during the compute gap come up empty,
  // so the default 0.5 would never give the hot VCI its own helper. Once
  // dedicated, the VCI is polled by the same ProgressThread as the static
  // dedicated baseline -- rotation overhead only during ramp-up.
  cfg.progress_engine.dedicate_hit_rate = 0.05;
  // Tighter sleep rung (MPX_WAIT_SLEEP_MAX): caps the reaction latency of
  // idle helpers and engine threads (and of every blocking wait) at 16us
  // instead of the 64us default. Applied to all three variants alike.
  cfg.wait_sleep_max_us = 16;
  return cfg;
}

struct EngineReport {
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t steals = 0;
  std::uint64_t idle_sleep_delta = 0;
};

/// Post-workload idle check: everything demoted, pollers asleep.
EngineReport drain_and_park(task::ProgressEngine& eng) {
  EngineReport rep;
  const auto s1 = eng.stats();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto s2 = eng.stats();
  rep.promotions = s2.promotions;
  rep.demotions = s2.demotions;
  rep.steals = s2.steals;
  rep.idle_sleep_delta = s2.worker_rungs.sleep - s1.worker_rungs.sleep;
  return rep;
}

// ------------------------------------------------------------------ halo --

double run_halo(Strategy strat, int iters, int compute_us,
                std::size_t halo_bytes, EngineReport* rep) {
  auto w = World::create(overlap_config());
  std::optional<task::ProgressEngine> eng;
  std::vector<std::unique_ptr<task::ProgressThread>> helpers;
  if (strat == Strategy::adaptive) {
    eng.emplace(*w);
    eng->attach(w->null_stream(0));
    eng->attach(w->null_stream(1));
  } else if (strat == Strategy::dedicated) {
    helpers.push_back(
        std::make_unique<task::ProgressThread>(w->null_stream(0)));
    helpers.push_back(
        std::make_unique<task::ProgressThread>(w->null_stream(1)));
  }

  StartGate gate;
  std::atomic<double> rank_ms[2] = {0.0, 0.0};
  const auto t0 = Clock::now();

  auto rank_body = [&](int rank) {
    Comm c = w->comm_world(rank);
    const int peer = 1 - rank;
    std::vector<std::byte> halo_out(halo_bytes), halo_in(halo_bytes);
    gate.wait(2);
    for (int it = 0; it < iters; ++it) {
      Request rr = c.irecv(halo_in.data(), halo_bytes,
                           dtype::Datatype::byte(), peer, it);
      Request sr = c.isend(halo_out.data(), halo_bytes,
                           dtype::Datatype::byte(), peer, it);
      offloaded_compute(compute_us);
      if (strat == Strategy::inline_poll) {
        sr.wait();
        rr.wait();
      } else {
        idle_wait({&sr, &rr});
      }
    }
    rank_ms[rank].store(ms_since(t0), std::memory_order_release);
  };

  std::thread r1(rank_body, 1);
  rank_body(0);
  r1.join();

  if (eng.has_value() && rep != nullptr) *rep = drain_and_park(*eng);
  if (eng.has_value()) eng->stop();
  helpers.clear();
  w->finalize_rank(0);
  w->finalize_rank(1);
  return std::max(rank_ms[0].load(std::memory_order_acquire),
                  rank_ms[1].load(std::memory_order_acquire));
}

// -------------------------------------------------------------- pipeline --

struct ContCount {
  std::atomic<int> fired{0};
  static void cb(const Status&, void* self) {
    static_cast<ContCount*>(self)->fired.fetch_add(
        1, std::memory_order_release);
  }
};

double run_pipeline(Strategy strat, int rounds, int compute_us, int chunks,
                    std::size_t chunk_bytes, EngineReport* rep) {
  auto w = World::create(overlap_config());
  std::optional<task::ProgressEngine> eng;
  std::vector<std::unique_ptr<task::ProgressThread>> helpers;
  if (strat == Strategy::adaptive) {
    eng.emplace(*w);
    eng->attach(w->null_stream(0));
    eng->attach(w->null_stream(1));
  } else if (strat == Strategy::dedicated) {
    helpers.push_back(
        std::make_unique<task::ProgressThread>(w->null_stream(0)));
    helpers.push_back(
        std::make_unique<task::ProgressThread>(w->null_stream(1)));
  }

  StartGate gate;
  std::atomic<double> rank_ms[2] = {0.0, 0.0};
  const auto t0 = Clock::now();

  std::thread sender([&] {
    Comm c = w->comm_world(1);
    std::vector<std::byte> chunk(chunk_bytes);
    gate.wait(2);
    for (int round = 0; round < rounds; ++round) {
      std::vector<Request> sreqs;
      sreqs.reserve(static_cast<std::size_t>(chunks));
      for (int i = 0; i < chunks; ++i) {
        sreqs.push_back(c.isend(chunk.data(), chunk_bytes,
                                dtype::Datatype::byte(), 0,
                                round * chunks + i));
      }
      if (strat == Strategy::inline_poll) {
        wait_all(sreqs);
      } else {
        std::vector<Request*> ptrs;
        for (Request& r : sreqs) ptrs.push_back(&r);
        idle_wait(ptrs);
      }
    }
    rank_ms[1].store(ms_since(t0), std::memory_order_release);
  });

  {
    Comm c = w->comm_world(0);
    Stream s0 = w->null_stream(0);
    std::vector<std::vector<std::byte>> bufs(
        static_cast<std::size_t>(chunks));
    for (auto& b : bufs) b.resize(chunk_bytes);
    gate.wait(2);
    for (int round = 0; round < rounds; ++round) {
      // Post the round's receives and wire them through a continuation
      // into a dependency chain: graph node i becomes pollable only after
      // node i-1, and reports done once chunk i's continuation fired —
      // the §4.2 frontier shape (only the head of the pipeline is polled).
      std::vector<Request> rreqs;
      rreqs.reserve(static_cast<std::size_t>(chunks));
      for (int i = 0; i < chunks; ++i) {
        rreqs.push_back(c.irecv(bufs[static_cast<std::size_t>(i)].data(),
                                chunk_bytes, dtype::Datatype::byte(), 1,
                                round * chunks + i));
      }
      ContCount fired;
      Request cont = ext::continue_init(*w, s0);
      ext::continue_attach_all(rreqs, ContCount::cb, &fired, cont);

      task::TaskGraph graph;
      task::TaskGraph::NodeId prev = 0;
      for (int i = 0; i < chunks; ++i) {
        const int need = i + 1;
        auto poll = [&fired, need]() -> AsyncResult {
          return fired.fired.load(std::memory_order_acquire) >= need
                     ? AsyncResult::done
                     : AsyncResult::pending;
        };
        prev = (i == 0) ? graph.add(poll) : graph.add(poll, {prev});
      }
      graph.launch(s0);

      offloaded_compute(compute_us);

      if (strat == Strategy::inline_poll) {
        graph.wait(s0);
        cont.wait();
      } else {
        while (!graph.done()) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        idle_wait({&cont});
      }
    }
    rank_ms[0].store(ms_since(t0), std::memory_order_release);
  }
  sender.join();

  if (eng.has_value() && rep != nullptr) *rep = drain_and_park(*eng);
  if (eng.has_value()) eng->stop();
  helpers.clear();
  w->finalize_rank(0);
  w->finalize_rank(1);
  return std::max(rank_ms[0].load(std::memory_order_acquire),
                  rank_ms[1].load(std::memory_order_acquire));
}

}  // namespace

int main() {
  const bool smoke = mpx_bench::smoke_run();
  const int reps = smoke ? 1 : 5;
  const int halo_iters = smoke ? 20 : 150;
  const int pipe_steps = smoke ? 4 : 30;
  constexpr int kComputeUs = 500;
  constexpr std::size_t kHaloBytes = 1 << 20;   // 1 MiB: LMT rendezvous
  constexpr int kChunks = 8;
  constexpr std::size_t kChunkBytes = 512 * 1024;

  std::printf("%-10s %-10s %5s %12s\n", "bench", "variant", "rep",
              "makespan_ms");
  for (int rep = 0; rep < reps; ++rep) {
    for (Strategy strat : {Strategy::inline_poll, Strategy::dedicated,
                           Strategy::adaptive}) {
      EngineReport er;
      const double halo_ms =
          run_halo(strat, halo_iters, kComputeUs, kHaloBytes, &er);
      std::printf("%-10s %-10s %5d %12.2f\n", "overlap_halo",
                  name_of(strat), rep, halo_ms);
      if (strat == Strategy::adaptive) {
        mpx_bench::json_emit(
            "overlap_halo", name_of(strat),
            {{"makespan_ms", halo_ms},
             {"iters", double(halo_iters)},
             {"promotions", double(er.promotions)},
             {"demotions", double(er.demotions)},
             {"steals", double(er.steals)},
             {"idle_sleep_delta", double(er.idle_sleep_delta)}});
      } else {
        mpx_bench::json_emit("overlap_halo", name_of(strat),
                             {{"makespan_ms", halo_ms},
                              {"iters", double(halo_iters)}});
      }

      const double pipe_ms = run_pipeline(strat, pipe_steps, kComputeUs,
                                          kChunks, kChunkBytes, &er);
      std::printf("%-10s %-10s %5d %12.2f\n", "overlap_pipeline",
                  name_of(strat), rep, pipe_ms);
      if (strat == Strategy::adaptive) {
        mpx_bench::json_emit(
            "overlap_pipeline", name_of(strat),
            {{"makespan_ms", pipe_ms},
             {"rounds", double(pipe_steps)},
             {"promotions", double(er.promotions)},
             {"demotions", double(er.demotions)},
             {"steals", double(er.steals)},
             {"idle_sleep_delta", double(er.idle_sleep_delta)}});
      } else {
        mpx_bench::json_emit("overlap_pipeline", name_of(strat),
                             {{"makespan_ms", pipe_ms},
                              {"rounds", double(pipe_steps)}});
      }
    }
  }
  return 0;
}
