// Model-check: the compiled progress stage table and the fair rotation
// cursor. Two invariants explored across interleavings of concurrent
// progress drivers:
//
//  1. Immutability after publish: the per-VCI stage table (names, order,
//     size) observed through vci_stage_table never changes once the World
//     is constructed, no matter how progress calls interleave.
//
//  2. The cursor never skips a source: with an always-productive stage A
//     registered ahead of a counting stage B, fair rotation must still
//     poll B — the scan resumes after A's hit, so B is reached within two
//     consecutive progress calls (a scan from the top would starve B
//     forever; test_progress_fairness.cpp shows the same bound natively).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mpx/mc/mc.hpp"
#include "mpx/mpx.hpp"

#if MPX_MODEL_CHECK

namespace mc = mpx::mc;
using namespace mpx;

namespace {

/// Stage A: reports progress on every poll (maximal starvation pressure).
class GreedySource final : public core_detail::ProgressSource {
 public:
  explicit GreedySource(std::uint64_t* hits) : hits_(hits) {}
  const char* name() const override { return "mc-greedy"; }
  unsigned mask_bit() const override { return progress_user; }
  bool idle(core_detail::Vci&) override { return false; }
  void poll(core_detail::Vci&, int* made) override {
    ++*hits_;
    *made += 1;
  }

 private:
  std::uint64_t* hits_;
};

/// Stage B: counts how often the engine reaches it.
class CountingSource final : public core_detail::ProgressSource {
 public:
  explicit CountingSource(std::uint64_t* polls) : polls_(polls) {}
  const char* name() const override { return "mc-counter"; }
  unsigned mask_bit() const override { return progress_user; }
  bool idle(core_detail::Vci&) override { return false; }
  void poll(core_detail::Vci&, int*) override { ++*polls_; }

 private:
  std::uint64_t* polls_;
};

std::vector<std::string> table_names(const World& w) {
  std::vector<std::string> names;
  for (const auto& st : w.vci_stage_table(0, 0)) names.push_back(st.name);
  return names;
}

}  // namespace

TEST(McProgressRegistry, TableImmutableAndCursorNeverSkips) {
  mc::Options opt;
  opt.name = "progress_registry";
  const mc::Result res = mc::explore(opt, [] {
    // Counters live on the schedule's stack: each explored interleaving
    // starts from a fresh World and fresh counts (determinism).
    std::uint64_t greedy_hits = 0, counter_polls = 0;
    WorldConfig cfg;
    cfg.nranks = 1;
    cfg.extra_sources.push_back([&](World&) {
      return std::make_unique<GreedySource>(&greedy_hits);
    });
    cfg.extra_sources.push_back([&](World&) {
      return std::make_unique<CountingSource>(&counter_polls);
    });
    auto w = World::create(cfg);
    mc::check(w->progress_registry().published(),
              "registry must be frozen after World construction");

    const std::vector<std::string> before = table_names(*w);

    // Two concurrent drivers on the same VCI (serialized by its lock, in
    // every order the checker can produce).
    mc::thread rival([&] {
      for (int i = 0; i < 2; ++i) {
        stream_progress(w->null_stream(0));
        mc::yield();
      }
    });
    for (int i = 0; i < 2; ++i) {
      stream_progress(w->null_stream(0));
      mc::check(table_names(*w) == before,
                "stage table mutated after publish");
      mc::yield();
    }
    rival.join();

    // 4 progress calls total. The greedy stage hit on every scan that
    // reached it, yet rotation must have carried the cursor past it to the
    // counting stage within two consecutive calls: >= 3 of the 4 scans
    // start at or pass mc-counter.
    mc::check(greedy_hits >= 1, "greedy stage never polled");
    mc::check(counter_polls >= 1,
              "cursor skipped a registered source (starvation)");
    mc::check(table_names(*w) == before, "stage table mutated");

    // The per-stage counters in the table reflect what actually ran.
    std::uint64_t greedy_table_hits = 0, counter_table_calls = 0;
    for (const auto& st : w->vci_stage_table(0, 0)) {
      if (st.name == "mc-greedy") greedy_table_hits = st.hits;
      if (st.name == "mc-counter") counter_table_calls = st.calls;
    }
    mc::check(greedy_table_hits == greedy_hits,
              "greedy hit counter out of sync with stage table");
    mc::check(counter_table_calls == counter_polls,
              "counter poll count out of sync with stage table");
  });
  RecordProperty("summary", res.summary());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_GT(res.schedules, 1);
}

#else
TEST(McProgressRegistry, SkippedWithoutModelCheck) { GTEST_SKIP(); }
#endif
