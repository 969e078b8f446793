// Adaptive progress engine runtime. See the header for the mode state
// machine; docs/architecture.md ("Adaptive progress engine") for who polls
// when.
//
// Concurrency layout:
//   - attach_mu_ serializes the slow path: attach/detach, every mode
//     transition (which starts the shared poller and starts/joins dedicated
//     helpers), and stats(). The controller holds it for the whole
//     sample/decide pass. It is an unranked leaf taken by threads that hold
//     no runtime lock, so it cannot participate in a lock cycle.
//   - No engine poller ever takes attach_mu_. The shared poller walks the
//     slot table round-robin through the release-published slot_count_
//     (the table storage never moves) and polls a slot only while its mode
//     reads shared, so the mode is the whole rotation membership: nothing
//     is enqueued, nothing can be stranded.
//   - Detach handoff: the poller publishes the slot it is about to poll in
//     shared_polling_ and re-reads the mode; detach() stores inline and
//     waits while shared_polling_ names its slot (both seq_cst, so one of
//     them sees the other). After detach() returns no poll of the VCI is in
//     flight, which is what lets a re-attach rebind the slot's VCI.
//   - The poll itself is core_detail::vci_poll (stream_progress in a
//     helper) — the compiled stage table behind every progress_test call.
//     Engine threads hold no lock around it and block nowhere; idle ones
//     sleep on a doorbell while their VCIs are quiet and descend the
//     spin/yield/sleep ladder otherwise. attach() points the VCI's bell at
//     the World's helper bell (the shared poller's), detach() unpoints it
//     after its handshake; the bell is the World's, so a ringer racing
//     the detach rings a live bell.
//   - Engine threads are pure DATAPATH: each poll pins the VCI's
//     TopologySnapshot with one acquire-load (TopoRef inside the entry
//     point) and may run concurrently with a control-plane topology swap —
//     the RCU grace period in src/core/control_plane.cpp is what makes
//     that safe. Nothing here may call a control-plane mutation entry
//     point (mpxlint progress-contract enforces it for poll contexts).
#include "mpx/task/progress_engine.hpp"

#include <chrono>
#include <thread>

#include "mpx/core/progress_source.hpp"
#include "mpx/task/progress_thread.hpp"

namespace mpx::task {

namespace {

/// Hard bound on attachable VCIs; the table is preallocated so the shared
/// poller can index it lock-free while attach() appends (same shape as
/// RankCtx slots).
std::size_t slot_table_capacity(const World& w) {
  const std::size_t cap = static_cast<std::size_t>(w.size()) *
                          static_cast<std::size_t>(w.config().max_vcis);
  return cap < 16 ? 16 : cap;
}

}  // namespace

struct ProgressEngine::Slot {
  Slot(const ProgressEngineConfig& cfg, const Stream& st, core_detail::Vci* v)
      : stream(st), vci(v), policy(cfg) {}

  // Rebound only by attach() of a detached slot (attach_mu_ held), when the
  // mode is inline and the detach handoff guarantees no poll is in flight.
  Stream stream;
  core_detail::Vci* vci;

  std::atomic<EngineMode> mode{EngineMode::inline_poll};
  std::atomic<bool> detached{false};

  /// Shared-poller polls, plus those of dedicated helpers already stopped.
  std::atomic<std::uint64_t> engine_polls{0};
  std::atomic<std::uint64_t> engine_hits{0};
  /// The dedicated helper while mode == dedicated (attach_mu_).
  std::unique_ptr<ProgressThread> helper;

  // The two totals below read `helper`: attach_mu_ held.
  std::uint64_t polls() const {
    return engine_polls.load(std::memory_order_relaxed) +
           (helper ? helper->iterations() : 0);
  }
  std::uint64_t hits() const {
    return engine_hits.load(std::memory_order_relaxed) +
           (helper ? helper->productive() : 0);
  }

  // Controller-only sampling cursors (attach_mu_ held at every access).
  std::uint64_t prev_progress_calls = 0;
  std::uint64_t prev_engine_polls = 0;
  std::uint64_t prev_engine_hits = 0;
  std::uint64_t prev_naps = 0;  ///< serving_naps at the last sample
  World::WaitRungCounters prev_rungs;
  EnginePolicy policy;
};

// ---------------------------------------------------------------- policy --

EngineMode EnginePolicy::decide(EngineMode current, const EngineSample& s,
                                bool can_grow) {
  const double hit_rate =
      s.engine_polls == 0
          ? 0.0
          : static_cast<double>(s.engine_hits) /
                static_cast<double>(s.engine_polls);
  // The application is not driving its own progress: work is pending and
  // either the app barely polls (it is off computing) or its blocking
  // waiters fell off the spin rung (polling, but empty and backed off).
  const bool app_starved =
      s.pending > 0 && (s.app_polls < kPromoteAppPolls || s.wait_backoffs > 0);
  // An epoch whose poller slept on its bell holds the mode: a sleeping
  // poller costs no core, and demoting would only re-promote on the next
  // burst of work. It slept when it started a bell wait, or when it did
  // not poll at all (one wait spans several epochs).
  const bool slept = s.engine_naps > 0 || s.engine_polls == 0;
  const bool gone_cold =
      s.pending == 0 && !slept && hit_rate <= kDemoteHitRate;

  switch (current) {
    case EngineMode::inline_poll:
      demote_streak_ = 0;
      if (app_starved) {
        if (promote_streak_ < kHysteresis) ++promote_streak_;
        // A matured streak blocked by the worker ceiling holds (deferred
        // promotion), it does not reset.
        if (promote_streak_ >= kHysteresis && can_grow) {
          promote_streak_ = 0;
          return EngineMode::shared;
        }
      } else {
        promote_streak_ = 0;
      }
      return EngineMode::inline_poll;

    case EngineMode::shared:
      if (gone_cold) {
        promote_streak_ = 0;
        if (++demote_streak_ >= kHysteresis) {
          demote_streak_ = 0;
          return EngineMode::inline_poll;
        }
        return EngineMode::shared;
      }
      demote_streak_ = 0;
      if (s.engine_polls > 0 && hit_rate >= dedicate_hit_rate_) {
        if (promote_streak_ < kHysteresis) ++promote_streak_;
        if (promote_streak_ >= kHysteresis && can_grow) {
          promote_streak_ = 0;
          return EngineMode::dedicated;
        }
      } else {
        promote_streak_ = 0;
      }
      return EngineMode::shared;

    case EngineMode::dedicated:
      promote_streak_ = 0;
      if (gone_cold) {
        if (++demote_streak_ >= kHysteresis) {
          demote_streak_ = 0;
          return EngineMode::shared;
        }
      } else {
        demote_streak_ = 0;
      }
      return EngineMode::dedicated;
  }
  return current;  // unreachable
}

// --------------------------------------------------------------- runtime --

ProgressEngine::ProgressEngine(World& world)
    : world_(world), cfg_(world.config().progress_engine) {
  if (cfg_.epoch_us < 1) cfg_.epoch_us = 1;
  if (cfg_.max_workers < 1) cfg_.max_workers = 1;
  slots_.resize(slot_table_capacity(world));
  controller_ = base::ScopedThread([this] { controller_loop(); });
}

ProgressEngine::~ProgressEngine() { stop(); }

void ProgressEngine::stop() {
  stop_.store(true, std::memory_order_release);
  // Same pattern as ProgressThread::stop: exactly one caller joins the
  // controller, the shared poller and the dedicated helpers; racing callers
  // block until it is done and then see every thread's final counters.
  std::call_once(join_once_, [this] {
    controller_.join();
    std::lock_guard<std::mutex> g(attach_mu_);
    // The controller, the only thread that starts pollers, is gone. The
    // shared poller stays allocated so stats() keeps its rungs.
    if (shared_) shared_->stop();
    const int n = slot_count_.load(std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      Slot& s = *slots_[static_cast<std::size_t>(i)];
      retire_helper(s);
      // Attached streams outlive the engine's pollers: stop relaying.
      if (!s.detached.load(std::memory_order_relaxed)) {
        core_detail::vci_relay(*s.vci, nullptr);
      }
    }
  });
}

void ProgressEngine::attach(const Stream& stream) {
  expects(stream.valid() && &stream.world() == &world_,
          "ProgressEngine::attach: stream does not belong to this world");
  std::lock_guard<std::mutex> g(attach_mu_);
  const int n = slot_count_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (!(s.stream == stream)) continue;
    if (s.detached.load(std::memory_order_relaxed)) {
      // The stream may have been freed and its id recycled since detach:
      // bind the VCI live now and start sampling and hysteresis afresh. A
      // detached slot is inline and no shared poll of it is in flight.
      s.stream = stream;
      s.vci = &world_.vci(stream.rank(), stream.vci());
      s.policy = EnginePolicy(cfg_);
      prime(s);
      s.detached.store(false, std::memory_order_relaxed);
      bell_in(s);
    }
    return;
  }
  expects(static_cast<std::size_t>(n) < slots_.size(),
          "ProgressEngine::attach: slot table full");
  auto s = std::make_unique<Slot>(cfg_, stream,
                                  &world_.vci(stream.rank(), stream.vci()));
  prime(*s);
  Slot& fresh = *s;
  slots_[static_cast<std::size_t>(n)] = std::move(s);
  slot_count_.store(n + 1, std::memory_order_release);
  bell_in(fresh);
}

void ProgressEngine::bell_in(Slot& s) {
  core_detail::vci_relay(*s.vci, &core_detail::helper_bell(world_));
  core_detail::vci_bell(*s.vci).ring();
}

void ProgressEngine::prime(Slot& s) {
  // attach_mu_ held. Prime the sampling cursors so the first epoch's
  // deltas cover exactly the first epoch, not the VCI's whole history.
  const int rank = s.stream.rank();
  const int id = s.stream.vci();
  s.prev_progress_calls = world_.vci_progress_calls(rank, id);
  s.prev_engine_polls = s.polls();
  s.prev_engine_hits = s.hits();
  s.prev_rungs = world_.vci_wait_rungs(rank, id);
  s.prev_naps = serving_naps(s);
}

std::uint64_t ProgressEngine::serving_naps(const Slot& s) const {
  // attach_mu_ held.
  switch (s.mode.load(std::memory_order_relaxed)) {
    case EngineMode::shared:
      return shared_ ? shared_->rungs().bell : 0;
    case EngineMode::dedicated:
      return s.helper ? s.helper->rungs().bell : 0;
    case EngineMode::inline_poll:
      break;
  }
  return 0;
}

void ProgressEngine::detach(const Stream& stream) {
  std::lock_guard<std::mutex> g(attach_mu_);
  const int n = slot_count_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (!(s.stream == stream)) continue;
    s.detached.store(true, std::memory_order_relaxed);
    retire_helper(s);
    // Handoff with poll_shared(): either the poller sees inline before it
    // polls, or this loop sees its published index and waits it out.
    s.mode.store(EngineMode::inline_poll, std::memory_order_seq_cst);
    while (shared_polling_.load(std::memory_order_seq_cst) == i) {
      std::this_thread::yield();
    }
    core_detail::vci_relay(*s.vci, nullptr);
    return;
  }
}

EngineMode ProgressEngine::mode_of(const Stream& stream) const {
  // attach_mu_: attach() may rebind a detached slot's stream.
  std::lock_guard<std::mutex> g(attach_mu_);
  const int n = slot_count_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    const Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (s.stream == stream) return s.mode.load(std::memory_order_relaxed);
  }
  return EngineMode::inline_poll;
}

ProgressEngine::Stats ProgressEngine::stats() const {
  std::lock_guard<std::mutex> g(attach_mu_);
  Stats out;
  out.worker_rungs = retired_rungs_;
  const auto add_rungs = [&out](core_detail::WaitLadderCounters::Snapshot r) {
    out.worker_rungs.spin += r.spin;
    out.worker_rungs.yield += r.yield;
    out.worker_rungs.sleep += r.sleep;
    out.worker_rungs.bell += r.bell;
  };
  const int n = slot_count_.load(std::memory_order_relaxed);
  out.vcis.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (s.helper) add_rungs(s.helper->rungs());
    if (s.detached.load(std::memory_order_relaxed)) continue;
    VciStats vs;
    vs.rank = s.stream.rank();
    vs.vci = s.stream.vci();
    vs.mode = s.mode.load(std::memory_order_relaxed);
    vs.engine_polls = s.polls();
    vs.engine_hits = s.hits();
    out.vcis.push_back(vs);
  }
  out.epochs = epochs_.load(std::memory_order_relaxed);
  out.promotions = promotions_.load(std::memory_order_relaxed);
  out.demotions = demotions_.load(std::memory_order_relaxed);
  out.workers = live_threads();
  if (shared_) add_rungs(shared_->rungs());
  return out;
}

int ProgressEngine::poll_slot(Slot& s) {
  const int made = core_detail::vci_poll(*s.vci, s.stream.mask());
  s.engine_polls.fetch_add(1, std::memory_order_relaxed);
  if (made != 0) s.engine_hits.fetch_add(1, std::memory_order_relaxed);
  return made;
}

int ProgressEngine::poll_shared() {
  // Shared poller only. One poll per call keeps the old pacing: one poll
  // per backoff step, whatever the number of shared VCIs.
  const int n = slot_count_.load(std::memory_order_acquire);
  for (int k = 0; k < n; ++k) {
    const int i = shared_next_ < n ? shared_next_ : 0;
    shared_next_ = i + 1;
    Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (s.mode.load(std::memory_order_relaxed) != EngineMode::shared) {
      continue;
    }
    // Detach handoff (see detach()): publish, then re-check the mode.
    shared_polling_.store(i, std::memory_order_seq_cst);
    int made = 0;
    if (s.mode.load(std::memory_order_seq_cst) == EngineMode::shared) {
      made = poll_slot(s);
    }
    shared_polling_.store(-1, std::memory_order_seq_cst);
    return made;
  }
  return 0;
}

bool ProgressEngine::shared_quiet() {
  // Shared poller only, after an empty poll: may it sleep on the helper
  // bell? Each VCI is read under the same detach handoff as a poll.
  const int n = slot_count_.load(std::memory_order_acquire);
  bool quiet = true;
  for (int i = 0; i < n && quiet; ++i) {
    Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (s.mode.load(std::memory_order_relaxed) != EngineMode::shared) {
      continue;
    }
    shared_polling_.store(i, std::memory_order_seq_cst);
    if (s.mode.load(std::memory_order_seq_cst) == EngineMode::shared) {
      quiet = core_detail::vci_quiet(*s.vci);
    }
    shared_polling_.store(-1, std::memory_order_seq_cst);
  }
  return quiet;
}

int ProgressEngine::live_threads() const {
  // attach_mu_ held.
  return (shared_ ? 1 : 0) + helpers_;
}

void ProgressEngine::retire_helper(Slot& s) {
  // attach_mu_ held. Joining under the lock is safe: a helper only polls
  // its VCI and never takes attach_mu_. Its counters fold into the slot
  // and the engine totals, so every reported count stays monotonic.
  if (!s.helper) return;
  s.helper->stop();
  s.engine_polls.fetch_add(s.helper->iterations(), std::memory_order_relaxed);
  s.engine_hits.fetch_add(s.helper->productive(), std::memory_order_relaxed);
  const auto r = s.helper->rungs();
  retired_rungs_.spin += r.spin;
  retired_rungs_.yield += r.yield;
  retired_rungs_.sleep += r.sleep;
  retired_rungs_.bell += r.bell;
  s.helper.reset();
  --helpers_;
}

void ProgressEngine::apply_transition(Slot& s, EngineMode next) {
  // attach_mu_ held (controller only). The policy moves one step at a
  // time along inline < shared < dedicated; leaving dedicated stops the
  // helper first.
  const EngineMode cur = s.mode.load(std::memory_order_relaxed);
  if (next == cur) return;
  retire_helper(s);
  (next > cur ? promotions_ : demotions_)
      .fetch_add(1, std::memory_order_relaxed);
  s.mode.store(next, std::memory_order_release);
  switch (next) {
    case EngineMode::shared:
      // The controller admits a slot into shared mode only when the poller
      // exists or the ceiling leaves room to start it.
      if (!shared_) {
        expects(live_threads() < cfg_.max_workers,
                "ProgressEngine: worker ceiling exceeded");
        shared_ = std::make_unique<ProgressThread>(
            world_, [this] { return poll_shared(); },
            &core_detail::helper_bell(world_),
            [this] { return shared_quiet(); });
      }
      // A poller asleep on quiet VCIs wakes to take this one in.
      core_detail::helper_bell(world_).ring();
      break;
    case EngineMode::dedicated:
      // The shared poller skips the slot from its next pass on.
      s.helper = std::make_unique<ProgressThread>(s.stream);
      ++helpers_;
      break;
    case EngineMode::inline_poll:
      break;
  }
}

void ProgressEngine::sample_and_decide() {
  std::lock_guard<std::mutex> g(attach_mu_);
  const int n = slot_count_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (s.detached.load(std::memory_order_relaxed)) continue;
    const int rank = s.stream.rank();
    const int id = s.stream.vci();

    const std::uint64_t pc = world_.vci_progress_calls(rank, id);
    const std::uint64_t ep = s.polls();
    const std::uint64_t eh = s.hits();
    const World::WaitRungCounters rungs = world_.vci_wait_rungs(rank, id);

    EngineSample smp;
    smp.engine_polls = ep - s.prev_engine_polls;
    smp.engine_hits = eh - s.prev_engine_hits;
    const std::uint64_t total = pc - s.prev_progress_calls;
    smp.app_polls = total > smp.engine_polls ? total - smp.engine_polls : 0;
    smp.pending = world_.vci_pending(rank, id);
    smp.wait_backoffs = (rungs.yield - s.prev_rungs.yield) +
                        (rungs.sleep - s.prev_rungs.sleep);
    s.prev_progress_calls = pc;
    s.prev_engine_polls = ep;
    s.prev_engine_hits = eh;
    s.prev_rungs = rungs;

    // A promotion needs a thread: inline -> shared rides the shared
    // poller or starts it, shared -> dedicated starts a helper. Either new
    // thread must fit under the ceiling.
    const EngineMode cur = s.mode.load(std::memory_order_relaxed);
    const bool can_grow = live_threads() < cfg_.max_workers ||
                          (cur == EngineMode::inline_poll && shared_);

    smp.engine_naps = serving_naps(s) - s.prev_naps;

    const EngineMode next = s.policy.decide(cur, smp, can_grow);
    if (next != cur) apply_transition(s, next);
    // After a transition the slot's poller, and so its nap count, changed.
    s.prev_naps = serving_naps(s);
  }
}

void ProgressEngine::controller_loop() {
  base::set_current_thread_name("mpx-engine-ctl");
  using std::chrono::microseconds;
  while (!stop_.load(std::memory_order_acquire)) {
    // Sleep one epoch in <=1ms slices so stop() stays prompt even under
    // long experimental epochs.
    long remaining = cfg_.epoch_us;
    while (remaining > 0 && !stop_.load(std::memory_order_acquire)) {
      const long slice = remaining < 1000 ? remaining : 1000;
      std::this_thread::sleep_for(microseconds(slice));
      remaining -= slice;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    sample_and_decide();
    epochs_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace mpx::task
