// Model-check: the shared LMT copy (LmtShare in request_impl.hpp). Two
// claimers — the sender's progress and the receiver's — take chunks from
// one cursor; the receiver completes once the copied-byte count reaches the
// total, and only that count orders the sender's chunk copies before the
// receiver reads the buffer.
//
// Includes a seeded-mutation self-test: mc::mut::weak_lmt_done weakens the
// count to relaxed. The checker must catch that as a data race on a chunk
// the sender copied, and the failing schedule must replay deterministically.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "mpx/core/detail/request_impl.hpp"
#include "mpx/mc/mc.hpp"

#if MPX_MODEL_CHECK

namespace mc = mpx::mc;
using mpx::core_detail::LmtShare;

namespace {

constexpr std::uint64_t kTotal = 3;
constexpr std::uint64_t kChunk = 1;  // one byte per chunk: every byte races
constexpr std::byte kGuard{0xEE};

/// One rendezvous: the receiver (virtual thread 0) publishes `clip` bytes
/// of room, claims chunks until the count reaches the total, then reads
/// every byte; the sender claims chunks once the buffer is published.
void shared_copy_round(std::uint64_t clip) {
  const std::byte src[kTotal] = {std::byte{1}, std::byte{2}, std::byte{3}};
  std::byte dst[kTotal] = {kGuard, kGuard, kGuard};
  LmtShare share;

  mc::thread sender([&] {
    while (share.dst.load(std::memory_order_acquire) == nullptr) mc::yield();
    while (share.copy_chunk(src, kTotal, kChunk) != 0) {
    }
  });

  share.publish(dst, clip);
  for (;;) {
    share.copy_chunk(src, kTotal, kChunk);
    if (share.copied_bytes() >= kTotal) break;
    mc::yield();
  }
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    MPX_MC_PLAIN_READ(dst + i, "LMT chunk");
    mc::check(dst[i] == (i < clip ? src[i] : kGuard),
              "a completed copy holds every byte below the clip, none above");
  }
  sender.join();
}

void exact_fit() { shared_copy_round(kTotal); }
void truncated() { shared_copy_round(kTotal - 1); }

}  // namespace

TEST(McLmtShare, CountOrdersEveryChunkAllSchedules) {
  mc::Options opt;
  opt.name = "lmt_share";
  const mc::Result res = mc::explore(opt, exact_fit);
  RecordProperty("summary", res.summary());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_TRUE(res.exhausted || res.truncated || res.bound_limited)
      << res.summary();
  EXPECT_GT(res.schedules, 1);
}

TEST(McLmtShare, TruncatedCopyStopsAtClipAllSchedules) {
  mc::Options opt;
  opt.name = "lmt_share_clip";
  const mc::Result res = mc::explore(opt, truncated);
  RecordProperty("summary", res.summary());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_GT(res.schedules, 1);
}

TEST(McLmtShare, SeededMutationWeakLmtDoneIsCaught) {
  mc::mut::weak_lmt_done = true;
  mc::Options opt;
  opt.name = "lmt_share_weak_done";
  const mc::Result res = mc::explore(opt, exact_fit);
  mc::mut::weak_lmt_done = false;
  RecordProperty("summary", res.summary());

  ASSERT_TRUE(res.failed)
      << "a relaxed copied-byte count must be detected: " << res.summary();
  EXPECT_NE(res.failure.find("data race"), std::string::npos) << res.failure;
  EXPECT_NE(res.failure.find("'LMT chunk'"), std::string::npos)
      << res.failure;
  ASSERT_FALSE(res.replay.empty());

  // The recorded decision string reproduces the same failure.
  mc::mut::weak_lmt_done = true;
  mc::Options replay_opt;
  replay_opt.name = "lmt_share_weak_done_replay";
  replay_opt.replay = res.replay;
  const mc::Result replayed = mc::explore(replay_opt, exact_fit);
  mc::mut::weak_lmt_done = false;
  EXPECT_TRUE(replayed.failed) << replayed.summary();
  EXPECT_EQ(replayed.schedules, 1) << "replay runs exactly one schedule";
  EXPECT_NE(replayed.failure.find("data race"), std::string::npos)
      << replayed.failure;
}

#else
TEST(McLmtShare, SkippedWithoutModelCheck) { GTEST_SKIP(); }
#endif
