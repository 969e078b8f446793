// Model-check: the shm inline-cell ring protocol across ALL interleavings.
//
// The datapath under test (shm_transport.cpp) gives every cell a lap word.
// Cell `idx` reads `idx` while free for the producer whose private head is
// `idx`; the producer writes the hot header, payload and (when needed) the
// cell's cold record, then publishes with a release store of `idx + 1`; the
// consumer claims the cell with an acquire load that reads `idx + 1`, hands
// it to the sink, and frees it for the next lap with a release store of
// `idx + cells`, which the next producer's acquire load must read before it
// rewrites the cell. Head and tail are private to their sides, and the
// lazily-allocated arena is published with release/acquire. Cells and cold
// records are plain data guarded by those edges (MPX_MC_PLAIN_WRITE
// annotations), so a weakened protocol — a relaxed publish, a cell freed
// before its read-out, reuse not ordered by the free store — shows up as a
// detected race or a failed invariant on some explored schedule, with a
// replayable trace. The seeded mutation mc::mut::weak_shm_publish (a
// relaxed publish) proves the checker catches the first of these.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "mpx/mc/mc.hpp"
#include "mpx/shm/shm_transport.hpp"

#if MPX_MODEL_CHECK

namespace mc = mpx::mc;
using mpx::base::ConstByteSpan;
using mpx::shm::ShmTransport;
using mpx::transport::Msg;
using mpx::transport::MsgHeader;
using mpx::transport::MsgKind;

namespace {

struct CollectSink final : mpx::transport::TransportSink {
  std::vector<Msg> msgs;
  std::vector<std::uint64_t> done;
  void on_msg(Msg&& m) override { msgs.push_back(std::move(m)); }
  void on_send_complete(std::uint64_t c) override { done.push_back(c); }
};

MsgHeader eager_header(int tag, std::size_t bytes) {
  MsgHeader h;
  h.kind = MsgKind::eager;
  h.src_rank = 0;
  h.dst_rank = 1;
  h.tag = tag;
  h.total_bytes = bytes;
  return h;
}

// Two-slot ring, four messages: every slot is reused, so the producer's
// next in-slot write must be ordered after the consumer's read-out by the
// lap word's free store. Sends that park (full ring) complete via the
// sender's own bulk flush; their cookies must be reported exactly once, in
// order.
void inline_fifo_park_and_reuse() {
  ShmTransport t(2, 1, /*cells=*/2, /*slot_bytes=*/16, /*deliver_batch=*/4);
  constexpr int kN = 4;
  CollectSink sender;
  std::vector<std::uint64_t> parked;

  mc::thread producer([&] {
    for (int i = 0; i < kN; ++i) {
      const std::byte b{static_cast<unsigned char>(0x10 + i)};
      if (!t.send_eager(eager_header(i, 1), ConstByteSpan(&b, 1),
                        100 + static_cast<std::uint64_t>(i))) {
        parked.push_back(100 + static_cast<std::uint64_t>(i));
      }
      t.poll(0, 0, sender, nullptr);  // sender-side progress
      mc::yield();
    }
    while (!t.idle(0, 0)) {  // flush whatever is still parked
      t.poll(0, 0, sender, nullptr);
      mc::yield();
    }
  });

  CollectSink recv;
  while (recv.msgs.size() < kN) {
    const std::size_t before = recv.msgs.size();
    t.poll(1, 0, recv, nullptr);
    if (recv.msgs.size() == before) mc::yield();
  }

  for (int i = 0; i < kN; ++i) {
    const Msg& m = recv.msgs[static_cast<std::size_t>(i)];
    mc::check(m.h.tag == i, "per-channel FIFO must hold on every schedule");
    mc::check(m.h.src_rank == 0 && m.h.dst_rank == 1 && m.h.dst_vci == 0 &&
                  m.h.total_bytes == 1 && m.h.sender_cookie == 0,
              "the hot header and the rebuilt destination arrive intact");
    mc::check(m.payload.size() == 1 &&
                  m.payload.data()[0] ==
                      std::byte{static_cast<unsigned char>(0x10 + i)},
              "in-slot payload must survive slot reuse intact");
  }
  producer.join();
  mc::check(sender.done == parked,
            "parked cookies complete exactly once, in park order");
  const mpx::shm::ShmStats st = t.stats();
  mc::check(parked.empty() == (st.ring_full_events == 0),
            "a send parks only after some push found its cell unfreed");
  mc::check(t.idle(1, 0), "ring must be empty after drain");
  mc::check(st.delivered == kN, "each published lap is delivered once");
}

}  // namespace

TEST(McShmRing, InlineFifoParkAndSlotReuseAcrossAllSchedules) {
  mc::Options opt;
  opt.name = "shm_ring_inline";
  const mc::Result res = mc::explore(opt, inline_fifo_park_and_reuse);
  RecordProperty("summary", res.summary());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_GT(res.schedules, 1) << "exploration must branch, not run once";
}

// Payloads above slot_bytes ride in an owned overflow buffer moved through
// the cell's cold record. The Buffer move-out happens on the consumer side
// before the cell's free store — the PLAIN cell and cold-record
// annotations catch any schedule where the producer could reuse the slot
// while the move is in flight.
TEST(McShmRing, OverflowPayloadsSurviveWraparound) {
  mc::Options opt;
  opt.name = "shm_ring_overflow";
  const mc::Result res = mc::explore(opt, [] {
    ShmTransport t(2, 1, /*cells=*/2, /*slot_bytes=*/8, /*deliver_batch=*/2);
    constexpr int kN = 3;
    constexpr std::size_t kBytes = 24;  // > slot_bytes: pooled overflow
    CollectSink sender;

    mc::thread producer([&] {
      std::byte buf[kBytes];
      for (int i = 0; i < kN; ++i) {
        for (std::size_t j = 0; j < kBytes; ++j) {
          buf[j] = std::byte{static_cast<unsigned char>(i * 31 + j)};
        }
        // A false return means the send parked (payload already copied, so
        // reusing buf is safe) — the flush loop below pushes it through.
        t.send_eager(eager_header(i, kBytes), ConstByteSpan(buf, kBytes), 0);
        t.poll(0, 0, sender, nullptr);
        mc::yield();
      }
      while (!t.idle(0, 0)) {
        t.poll(0, 0, sender, nullptr);
        mc::yield();
      }
    });

    CollectSink recv;
    while (recv.msgs.size() < kN) {
      const std::size_t before = recv.msgs.size();
      t.poll(1, 0, recv, nullptr);
      if (recv.msgs.size() == before) mc::yield();
    }

    for (int i = 0; i < kN; ++i) {
      const Msg& m = recv.msgs[static_cast<std::size_t>(i)];
      mc::check(m.h.tag == i, "overflow messages keep FIFO order");
      mc::check(m.payload.size() == kBytes, "overflow size preserved");
      bool intact = true;
      for (std::size_t j = 0; j < kBytes; ++j) {
        intact = intact &&
                 m.payload.data()[j] ==
                     std::byte{static_cast<unsigned char>(i * 31 + j)};
      }
      mc::check(intact, "overflow payload bytes intact across wraparound");
    }
    producer.join();
  });
  RecordProperty("summary", res.summary());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_GT(res.schedules, 1);
}

TEST(McShmRing, SeededMutationWeakShmPublishIsCaught) {
  mc::mut::weak_shm_publish = true;
  mc::Options opt;
  opt.name = "shm_ring_weak_publish";
  const mc::Result res = mc::explore(opt, inline_fifo_park_and_reuse);
  mc::mut::weak_shm_publish = false;
  RecordProperty("summary", res.summary());

  ASSERT_TRUE(res.failed)
      << "a relaxed lap-word publish must be detected: " << res.summary();
  EXPECT_NE(res.failure.find("data race"), std::string::npos) << res.failure;
  EXPECT_NE(res.failure.find("'shm cell'"), std::string::npos)
      << res.failure;
  ASSERT_FALSE(res.replay.empty());

  // The recorded decision string reproduces the same failure.
  mc::mut::weak_shm_publish = true;
  mc::Options replay_opt;
  replay_opt.name = "shm_ring_weak_publish_replay";
  replay_opt.replay = res.replay;
  const mc::Result replayed =
      mc::explore(replay_opt, inline_fifo_park_and_reuse);
  mc::mut::weak_shm_publish = false;
  EXPECT_TRUE(replayed.failed) << replayed.summary();
  EXPECT_EQ(replayed.schedules, 1) << "replay runs exactly one schedule";
  EXPECT_NE(replayed.failure.find("data race"), std::string::npos)
      << replayed.failure;
}

#else
TEST(McShmRing, SkippedWithoutModelCheck) { GTEST_SKIP(); }
#endif
