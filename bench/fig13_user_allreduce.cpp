// Figure 13, grown into the schedule-compiler sweep: allreduce latency
// from 8 B to 1 MB, one process per node (all traffic through the
// simulated NIC), 8 ranks.
//
// Series per payload size:
//
//   seed_rd       the seed baseline: recursive doubling re-planned and
//                 re-allocated on every call (ir::Opts{Algo::rd,
//                 use_cache = false}; MPX_COLL_ALGO=rd does the same
//                 process-wide). Older BENCH_pr7.json rows carry this
//                 series under its round-engine name.
//   uncached      the schedule compiler forced to recompile per call
//                 (ir::Opts{use_cache = false}): isolates compile cost.
//   cached        the compiler's steady state: first call compiles into
//                 the per-comm cache, timed calls run pooled cursors over
//                 the cached schedule (zero planning, zero allocation).
//   persistent    allreduce_init once, then start/wait cycles over the
//                 pinned cursor — the paper's "user-level schedule"
//                 endgame (§5.3) and the headline win condition: it must
//                 match or beat seed_rd at every point.
//   user_rd       the original Listing 1.8 user-level recursive doubling
//                 (int32+sum, in place, pow2 ranks), kept for continuity
//                 with the paper's figure.
//
// With MPX_BENCH_JSON set, appends BENCH_pr7.json-schema rows there:
//   {"bench":"fig13_user_allreduce","variant":"cached_1024b",
//    "bytes":1024,"us_op":...,"iters":N}
// CI smoke-runs this and gates cached/persistent points via
// scripts/bench_diff.py --watch (see .github/workflows/ci.yml).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "mpx/coll/coll.hpp"
#include "mpx/coll/ir.hpp"
#include "mpx/coll/user_allreduce.hpp"
#include "mpx/mpx.hpp"

namespace {

using namespace mpx;

constexpr int kRanks = 8;

/// Per-rank op under test: called `warmups` times untimed, then `reps`
/// timed. Every rank runs the same sequence (collective calls must stay
/// aligned); rank 0's wall time is the sample.
using RankOp = std::function<void(int rank, const Comm& c, Stream s)>;

double run_series(World& world, int warmups, int reps, const RankOp& op) {
  std::vector<std::thread> threads;
  threads.reserve(kRanks);
  double us_op = 0.0;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      Comm c = world.comm_world(r);
      const Stream s = c.stream();
      for (int i = 0; i < warmups; ++i) op(r, c, s);
      coll::barrier(c);
      const double t0 = world.wtime();
      for (int i = 0; i < reps; ++i) op(r, c, s);
      if (r == 0) us_op = (world.wtime() - t0) * 1e6 / reps;
      world.finalize_rank(r);
    });
  }
  for (auto& t : threads) t.join();
  return us_op;
}

void emit(const char* variant, std::size_t bytes, double us_op, int reps) {
  std::string v = std::string(variant) + "_" + std::to_string(bytes) + "b";
  mpx_bench::json_emit("fig13_user_allreduce", v.c_str(),
                       {{"bytes", static_cast<double>(bytes)},
                        {"us_op", us_op},
                        {"iters", static_cast<double>(reps)}});
  std::printf("  %-12s %8zu B  %10.2f us/op\n", variant, bytes, us_op);
}

void drive(Request r, const Stream& s) {
  while (!r.is_complete()) {
    stream_progress(s);
    std::this_thread::yield();
  }
}

}  // namespace

int main() {
  const bool smoke = mpx_bench::smoke_run();
  const int reps = smoke ? 8 : 40;
  const int warmups = smoke ? 2 : 8;
  // 8 B .. 1 MB in the paper's decade-ish steps (int32 elements).
  const std::size_t counts[] = {2, 16, 256, 4096, 65536, 262144};

  WorldConfig cfg;
  cfg.nranks = kRanks;
  cfg.ranks_per_node = 1;  // one process per node, as in the paper's Fig. 13

  for (const std::size_t count : counts) {
    const std::size_t bytes = count * sizeof(std::int32_t);
    std::printf("allreduce %zu B over %d simulated nodes (%d reps):\n", bytes,
                kRanks, reps);

    std::vector<std::vector<std::int32_t>> in(kRanks), out(kRanks);
    for (int r = 0; r < kRanks; ++r) {
      in[r].assign(count, r + 1);
      out[r].assign(count, 0);
    }
    const auto dt = dtype::Datatype::int32();
    const auto op = dtype::ReduceOp::sum;

    {
      auto w = World::create(cfg);
      emit("seed_rd", bytes,
           run_series(*w, warmups, reps,
                      [&](int r, const Comm& c, Stream s) {
                        drive(coll::ir::iallreduce(
                                  in[r].data(), out[r].data(), count, dt, op,
                                  c,
                                  coll::ir::Opts{coll::ir::Algo::rd,
                                                 /*use_cache=*/false}),
                              s);
                      }),
           reps);
    }
    {
      auto w = World::create(cfg);
      emit("uncached", bytes,
           run_series(*w, warmups, reps,
                      [&](int r, const Comm& c, Stream s) {
                        drive(coll::ir::iallreduce(
                                  in[r].data(), out[r].data(), count, dt, op,
                                  c,
                                  coll::ir::Opts{coll::ir::Algo::auto_,
                                                 /*use_cache=*/false}),
                              s);
                      }),
           reps);
    }
    {
      auto w = World::create(cfg);
      emit("cached", bytes,
           run_series(*w, warmups, reps,
                      [&](int r, const Comm& c, Stream s) {
                        drive(coll::ir::iallreduce(in[r].data(),
                                                   out[r].data(), count, dt,
                                                   op, c),
                              s);
                      }),
           reps);
    }
    {
      // Persistent: one init per rank (kept alive across the whole series
      // by value-capture in the per-rank closure state), start/wait per op.
      auto w = World::create(cfg);
      std::vector<Request> handles(kRanks);
      emit("persistent", bytes,
           run_series(*w, warmups, reps,
                      [&](int r, const Comm& c, Stream s) {
                        if (!handles[r].valid()) {
                          handles[r] = coll::ir::allreduce_init(
                              in[r].data(), out[r].data(), count, dt, op, c);
                        }
                        start(handles[r]);
                        drive(handles[r], s);
                      }),
           reps);
    }
    {
      // Listing 1.8 (in place: restore the contribution each rep).
      auto w = World::create(cfg);
      std::vector<std::vector<std::int32_t>> buf(kRanks);
      for (int r = 0; r < kRanks; ++r) buf[r].assign(count, r + 1);
      emit("user_rd", bytes,
           run_series(*w, warmups, reps,
                      [&](int r, const Comm& c, Stream s) {
                        bool done = false;
                        if (coll::user_allreduce_int_sum_start(
                                buf[r].data(), count, c, &done) !=
                            Err::success) {
                          std::abort();
                        }
                        while (!done) {
                          stream_progress(s);
                          std::this_thread::yield();
                        }
                        buf[r].assign(count, r + 1);
                      }),
           reps);
    }
  }
  return 0;
}
