// sched_verify: exhaustive offline sweep of the cross-rank schedule
// verifier (mpx::coll::ir::verify) over every compiled collective point.
//
// For each (kind, algo) x comm size x count class x root x placement,
// compile all N per-rank schedules exactly as the runtime would and run the
// full verify_ranks battery; then, on a sample of points, apply each seeded
// mutation (ir_verify.hpp inject_fault) to one rank's clone and require
// the verifier to reject it with a counterexample. A JSON report is
// written for CI archival; the exit code is nonzero on any clean-point
// diagnostic or any uncaught mutation.
//
// Usage: sched_verify [--out report.json] [--max-size N]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "mpx/coll/ir.hpp"
#include "mpx/coll/ir_verify.hpp"
#include "mpx/dtype/datatype.hpp"

namespace ir = mpx::coll::ir;
namespace verify = ir::verify;

namespace {

enum class Roots { fixed, sample, every };

struct Combo {
  ir::CollKind kind;
  ir::Algo algo;
  Roots roots;    ///< root fixed at 0, {0, P-1, P/2}, or every rank
  bool in_place;  ///< also sweep the in-place variant
};

constexpr Combo kCombos[] = {
    {ir::CollKind::allreduce, ir::Algo::rd, Roots::fixed, false},
    {ir::CollKind::allreduce, ir::Algo::ring, Roots::fixed, false},
    {ir::CollKind::allreduce, ir::Algo::rsag, Roots::fixed, false},
    {ir::CollKind::bcast, ir::Algo::knomial, Roots::sample, false},
    {ir::CollKind::bcast, ir::Algo::scatter_ag, Roots::sample, false},
    {ir::CollKind::reduce, ir::Algo::knomial, Roots::sample, false},
    {ir::CollKind::barrier, ir::Algo::dissemination, Roots::fixed, false},
    {ir::CollKind::gather, ir::Algo::linear, Roots::every, true},
    {ir::CollKind::scatter, ir::Algo::linear, Roots::every, true},
    {ir::CollKind::allgather, ir::Algo::ring, Roots::fixed, true},
    {ir::CollKind::alltoall, ir::Algo::pairwise, Roots::fixed, false},
    {ir::CollKind::reduce_scatter_block, ir::Algo::ring, Roots::fixed, true},
    {ir::CollKind::scan, ir::Algo::chain, Roots::fixed, true},
    {ir::CollKind::exscan, ir::Algo::chain, Roots::fixed, true},
};

const char* kind_str(ir::CollKind k) {
  switch (k) {
    case ir::CollKind::allreduce: return "allreduce";
    case ir::CollKind::bcast: return "bcast";
    case ir::CollKind::reduce: return "reduce";
    case ir::CollKind::barrier: return "barrier";
    case ir::CollKind::gather: return "gather";
    case ir::CollKind::scatter: return "scatter";
    case ir::CollKind::allgather: return "allgather";
    case ir::CollKind::alltoall: return "alltoall";
    case ir::CollKind::reduce_scatter_block: return "reduce_scatter_block";
    case ir::CollKind::scan: return "scan";
    case ir::CollKind::exscan: return "exscan";
  }
  return "?";
}

std::vector<int> roots_of(Roots roots, int size) {
  switch (roots) {
    case Roots::fixed: return {0};
    case Roots::sample:
      return size > 2 ? std::vector<int>{0, size - 1, size / 2}
                      : std::vector<int>{0, size - 1};
    case Roots::every: break;
  }
  std::vector<int> all;
  for (int r = 0; r < size; ++r) all.push_back(r);
  return all;
}

/// Element counts spanning the count classes (int32): a few bytes to 1 MiB.
constexpr std::size_t kCounts[] = {1, 16, 256, 4096, 65536, 262144};

constexpr const char* kFaults[] = {"swap_tag", "drop_edge", "truncate_part",
                                   "reorder_reduce"};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

struct Failure {
  std::string point;
  std::string detail;
};

/// Compile all `size` ranks of one point. `count` is per rank; blocked
/// kinds run over a vector of size*count elements.
std::vector<ir::SchedPtr> compile_ranks(const Combo& c, std::size_t count,
                                        int size, int root, bool inp) {
  const mpx::net::CostModel net{};
  const auto dt = mpx::dtype::Datatype::int32();
  const std::size_t vec =
      ir::blocked(c.kind) ? count * static_cast<std::size_t>(size) : count;
  std::vector<ir::SchedPtr> ranks;
  ranks.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    // Match the runtime's in-place conventions: bcast and barrier have no
    // send buffer, reduce contributes in place at the root only, gather
    // and scatter are in place at the root only when swept so, and the
    // remaining kinds are uniform.
    bool inp_r = inp;
    switch (c.kind) {
      case ir::CollKind::bcast:
      case ir::CollKind::barrier: inp_r = true; break;
      case ir::CollKind::reduce: inp_r = r == root; break;
      case ir::CollKind::gather:
      case ir::CollKind::scatter: inp_r = inp && r == root; break;
      default: break;
    }
    ranks.push_back(ir::compile(c.kind, vec, dt, mpx::dtype::ReduceOp::sum,
                                inp_r, root, r, size, net, c.algo));
  }
  return ranks;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "sched_verify_report.json";
  int max_size = 17;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--max-size") == 0 && i + 1 < argc) {
      max_size = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--out file] [--max-size N]\n",
                   argv[0]);
      return 2;
    }
  }

  std::size_t points = 0, mutations = 0, mutations_caught = 0;
  std::vector<Failure> clean_failures, mutation_misses;

  for (const Combo& c : kCombos) {
    // A barrier moves no data: its one point per size runs at count 0.
    const bool barrier = c.kind == ir::CollKind::barrier;
    for (int size = 2; size <= max_size; ++size) {
      for (const int root : roots_of(c.roots, size)) {
        for (const bool inp : {false, true}) {
          if (inp && !c.in_place) continue;
          for (const std::size_t count : kCounts) {
            if (barrier && count != kCounts[0]) continue;
            const std::size_t n = barrier ? 0 : count;
            const std::string point =
                std::string(kind_str(c.kind)) + "/" + ir::to_string(c.algo) +
                " P=" + std::to_string(size) + " root=" +
                std::to_string(root) + (inp ? " in_place" : "") +
                " count=" + std::to_string(n);
            const auto ranks = compile_ranks(c, n, size, root, inp);
            const verify::Report rep = verify::verify_ranks(ranks);
            ++points;
            if (!rep.ok()) {
              clean_failures.push_back({point, rep.to_string()});
              continue;
            }
            // Mutation pass on one mid-size cell per (combo, size, root,
            // placement): mutate rank (size/2)'s clone, expect rejection.
            // Needs a count class with headroom — at tiny max_count every
            // block resolves to zero elements and a truncated Part is
            // extensionally invisible (the schedules are equal at every
            // admissible count).
            if (count != 4096 && !barrier) continue;
            for (const char* fault : kFaults) {
              auto mut = verify::clone(*ranks[static_cast<std::size_t>(
                  size / 2)]);
              if (!verify::inject_fault(*mut, fault)) {
                continue;  // no site in this schedule (e.g. no reduce pair)
              }
              auto mranks = ranks;
              mranks[static_cast<std::size_t>(size / 2)] = std::move(mut);
              ++mutations;
              const verify::Report mrep = verify::verify_ranks(mranks);
              if (!mrep.ok() && !mrep.diags[0].trace.empty()) {
                ++mutations_caught;
              } else if (!mrep.ok()) {
                ++mutations_caught;  // caught, but trace-less: still report
                mutation_misses.push_back(
                    {point + " fault=" + fault,
                     "rejected without a counterexample trace"});
              } else {
                mutation_misses.push_back(
                    {point + " fault=" + fault, "mutation verified clean"});
              }
            }
          }
        }
      }
    }
  }

  const bool ok = clean_failures.empty() && mutation_misses.empty();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"points\": %zu,\n  \"mutations\": %zu,\n"
                 "  \"mutations_caught\": %zu,\n  \"ok\": %s,\n",
                 points, mutations, mutations_caught, ok ? "true" : "false");
    std::fprintf(f, "  \"clean_failures\": [");
    for (std::size_t i = 0; i < clean_failures.size(); ++i) {
      std::fprintf(f, "%s\n    {\"point\": \"%s\", \"detail\": \"%s\"}",
                   i != 0 ? "," : "",
                   json_escape(clean_failures[i].point).c_str(),
                   json_escape(clean_failures[i].detail).c_str());
    }
    std::fprintf(f, "],\n  \"mutation_misses\": [");
    for (std::size_t i = 0; i < mutation_misses.size(); ++i) {
      std::fprintf(f, "%s\n    {\"point\": \"%s\", \"detail\": \"%s\"}",
                   i != 0 ? "," : "",
                   json_escape(mutation_misses[i].point).c_str(),
                   json_escape(mutation_misses[i].detail).c_str());
    }
    std::fprintf(f, "]\n}\n");
    std::fclose(f);
  }

  std::printf("sched_verify: %zu points, %zu mutations (%zu caught)\n",
              points, mutations, mutations_caught);
  for (const Failure& fl : clean_failures) {
    std::printf("CLEAN POINT FAILED: %s\n%s\n", fl.point.c_str(),
                fl.detail.c_str());
  }
  for (const Failure& fl : mutation_misses) {
    std::printf("MUTATION MISSED: %s (%s)\n", fl.point.c_str(),
                fl.detail.c_str());
  }
  return ok ? 0 : 1;
}
