// Adaptive progress engine runtime. See the header for the mode state
// machine; docs/architecture.md ("Adaptive progress engine") for who polls
// when.
//
// Concurrency layout:
//   - attach_mu_ serializes the slow path: attach/detach, worker spawning,
//     every mode transition, and stats(). The controller holds it for the
//     whole sample/decide pass. It is an unranked leaf taken by threads
//     that hold no runtime lock, so it cannot participate in a lock cycle.
//   - Shared workers never take attach_mu_. They navigate the slot table
//     through the release-published slot_count_ (the table storage never
//     moves) and read each slot's mode atomically; stale deque entries
//     whose slot left shared mode are dropped at pop time (`in_rotation`
//     then allows the controller to re-enqueue the slot later,
//     exactly-one-copy). Workers never change role: a dedicated VCI gets
//     its own ProgressThread, started and joined under attach_mu_ (the
//     helper never takes it).
//   - The poll itself is core_detail::vci_poll (stream_progress in a
//     helper) — the compiled stage table behind every progress_test call.
//     Engine threads hold no lock around it and block nowhere; idle ones
//     descend the spin/yield/sleep ladder.
//   - Engine threads are pure DATAPATH: each poll pins the VCI's
//     TopologySnapshot with one acquire-load (TopoRef inside the entry
//     point) and may run concurrently with a control-plane topology swap —
//     the RCU grace period in src/core/control_plane.cpp is what makes
//     that safe. Nothing here may call a control-plane mutation entry
//     point (mpxlint progress-contract enforces it for poll contexts).
#include "mpx/task/progress_engine.hpp"

#include <chrono>
#include <string>
#include <thread>

#include "mpx/core/progress_source.hpp"
#include "mpx/task/progress_thread.hpp"

namespace mpx::task {

namespace {

/// Capacity of each shared worker's work-stealing deque of slot indices.
constexpr std::size_t kDequeCapacity = 64;

/// Hard bound on attachable VCIs; the table is preallocated so workers can
/// index it lock-free while attach() appends (same shape as RankCtx slots).
std::size_t slot_table_capacity(const World& w) {
  const std::size_t cap = static_cast<std::size_t>(w.size()) *
                          static_cast<std::size_t>(w.config().max_vcis);
  return cap < 16 ? 16 : cap;
}

}  // namespace

struct ProgressEngine::Slot {
  Slot(const ProgressEngineConfig& cfg, const Stream& st, core_detail::Vci* v)
      : stream(st), vci(v), policy(cfg) {}

  const Stream stream;
  core_detail::Vci* const vci;

  std::atomic<EngineMode> mode{EngineMode::inline_poll};
  std::atomic<bool> detached{false};
  /// True while an index for this slot lives in some worker's inbox or
  /// deque (exactly one copy in the whole pool). Workers clear it when
  /// they drop a stale entry; the controller's re-enqueue CASes it back.
  std::atomic<bool> in_rotation{false};

  /// Shared-worker polls, plus those of dedicated helpers already stopped.
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
  World::WaitRungCounters prev_rungs;
  EnginePolicy policy;
};

struct ProgressEngine::Worker {
  explicit Worker(int idx) : index(idx), deque(kDequeCapacity) {}

  const int index;
  StealDeque<int> deque;            ///< this worker's shared rotation
  base::MpscQueue<int> inbox;       ///< controller -> worker assignments
  core_detail::WaitLadderCounters rungs;
  base::ScopedThread thread;        ///< started last, by spawn_worker_locked
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
  const bool gone_cold = s.pending == 0 && hit_rate <= kDemoteHitRate;

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
  const WorldConfig& wc = world.config();
  worker_wait_ = core_detail::WaitPolicy{wc.wait_spin, wc.wait_yield,
                                         wc.wait_sleep_max_us};
  slots_.resize(slot_table_capacity(world));
  workers_.resize(static_cast<std::size_t>(cfg_.max_workers));
  controller_ = base::ScopedThread([this] { controller_loop(); });
}

ProgressEngine::~ProgressEngine() { stop(); }

void ProgressEngine::stop() {
  stop_.store(true, std::memory_order_release);
  // Same pattern as ProgressThread::stop: exactly one caller joins the
  // controller, the workers and the dedicated helpers; racing callers
  // block until it is done and then see every thread's final counters.
  std::call_once(join_once_, [this] {
    controller_.join();
    const int nw = worker_count_.load(std::memory_order_acquire);
    for (int i = 0; i < nw; ++i) {
      workers_[static_cast<std::size_t>(i)]->thread.join();
    }
    std::lock_guard<std::mutex> g(attach_mu_);
    const int n = slot_count_.load(std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      retire_helper(*slots_[static_cast<std::size_t>(i)]);
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
    if (s.stream == stream) {
      s.detached.store(false, std::memory_order_relaxed);
      return;
    }
  }
  expects(static_cast<std::size_t>(n) < slots_.size(),
          "ProgressEngine::attach: slot table full");
  auto s = std::make_unique<Slot>(cfg_, stream,
                                  &world_.vci(stream.rank(), stream.vci()));
  // Prime the sampling cursors so the first epoch's deltas cover exactly
  // the first epoch, not the VCI's whole history.
  s->prev_progress_calls =
      world_.vci_progress_calls(stream.rank(), stream.vci());
  s->prev_rungs = world_.vci_wait_rungs(stream.rank(), stream.vci());
  slots_[static_cast<std::size_t>(n)] = std::move(s);
  slot_count_.store(n + 1, std::memory_order_release);
}

void ProgressEngine::detach(const Stream& stream) {
  std::lock_guard<std::mutex> g(attach_mu_);
  const int n = slot_count_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (!(s.stream == stream)) continue;
    s.detached.store(true, std::memory_order_relaxed);
    retire_helper(s);
    // A shared worker drops its copy at its next pop.
    s.mode.store(EngineMode::inline_poll, std::memory_order_release);
    return;
  }
}

EngineMode ProgressEngine::mode_of(const Stream& stream) const {
  const int n = slot_count_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    const Slot& s = *slots_[static_cast<std::size_t>(i)];
    if (s.stream == stream) return s.mode.load(std::memory_order_acquire);
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
  out.steals = steals_.load(std::memory_order_relaxed);
  out.workers = live_threads();
  const int nw = worker_count_.load(std::memory_order_relaxed);
  for (int wi = 0; wi < nw; ++wi) {
    add_rungs(workers_[static_cast<std::size_t>(wi)]->rungs.snapshot());
  }
  return out;
}

int ProgressEngine::poll_slot(Slot& s) {
  const int made = core_detail::vci_poll(*s.vci, s.stream.mask());
  s.engine_polls.fetch_add(1, std::memory_order_relaxed);
  if (made != 0) s.engine_hits.fetch_add(1, std::memory_order_relaxed);
  return made;
}

int ProgressEngine::live_threads() const {
  // attach_mu_ held.
  return worker_count_.load(std::memory_order_relaxed) + helpers_;
}

void ProgressEngine::spawn_worker_locked() {
  expects(live_threads() < cfg_.max_workers,
          "ProgressEngine: worker ceiling exceeded");
  const int n = worker_count_.load(std::memory_order_relaxed);
  auto w = std::make_unique<Worker>(n);
  Worker* raw = w.get();
  workers_[static_cast<std::size_t>(n)] = std::move(w);
  // Publish the table entry before the thread starts and before other
  // workers may steal from index n.
  worker_count_.store(n + 1, std::memory_order_release);
  raw->thread = base::ScopedThread([this, raw] { worker_loop(*raw); });
}

void ProgressEngine::assign_to_worker(int slot_idx) {
  // attach_mu_ held. Exactly-one-copy: only the false->true winner may
  // enqueue the index anywhere.
  Slot& s = *slots_[static_cast<std::size_t>(slot_idx)];
  bool expected = false;
  if (!s.in_rotation.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
    return;  // already riding in some deque
  }
  // The controller admits a slot into shared mode only when a worker
  // exists or the ceiling leaves room to spawn the first one.
  if (worker_count_.load(std::memory_order_relaxed) == 0) {
    spawn_worker_locked();
  }
  const int nw = worker_count_.load(std::memory_order_relaxed);
  workers_[static_cast<std::size_t>(slot_idx % nw)]->inbox.push(
      std::move(slot_idx));
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
  s.helper.reset();
  --helpers_;
}

void ProgressEngine::apply_transition(int idx, Slot& s, EngineMode next) {
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
      assign_to_worker(idx);
      break;
    case EngineMode::dedicated:
      // The shared worker drops its copy at its next pop.
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

    // A promotion needs a thread: inline -> shared joins an existing
    // shared worker or spawns the first one, shared -> dedicated starts a
    // helper. Either new thread must fit under the ceiling.
    const EngineMode cur = s.mode.load(std::memory_order_relaxed);
    const bool can_grow =
        live_threads() < cfg_.max_workers ||
        (cur == EngineMode::inline_poll &&
         worker_count_.load(std::memory_order_relaxed) > 0);

    const EngineMode next = s.policy.decide(cur, smp, can_grow);
    if (next != cur) {
      apply_transition(i, s, next);
    } else if (cur == EngineMode::shared &&
               !s.in_rotation.load(std::memory_order_acquire)) {
      // Heal a stranded shared slot. Two ways one arises: a worker's
      // re-push hit a full deque, or a drop raced a re-promotion (the
      // worker popped the entry, the controller saw in_rotation still
      // true and assumed the slot was riding, then the worker dropped
      // it). in_rotation == false guarantees no live copy exists, so
      // re-enqueueing cannot violate exactly-one-copy.
      assign_to_worker(i);
    }
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

void ProgressEngine::worker_loop(Worker& w) {
  base::set_current_thread_name("mpx-engine-" + std::to_string(w.index));
  core_detail::WaitBackoff backoff{worker_wait_, &w.rungs};
  while (!stop_.load(std::memory_order_acquire)) {
    // Move controller handoffs into the rotation.
    while (auto idx = w.inbox.try_pop()) {
      if (!w.deque.try_push(*idx)) {
        slots_[static_cast<std::size_t>(*idx)]->in_rotation.store(
            false, std::memory_order_release);
      }
    }
    // Rotate: take the oldest assignment (self-steal keeps the rotation
    // FIFO), poll it, put it back. Fall back to stealing from peers.
    std::optional<int> idx = w.deque.try_steal();
    if (!idx.has_value()) {
      const int nw = worker_count_.load(std::memory_order_acquire);
      for (int off = 1; off < nw && !idx.has_value(); ++off) {
        idx = workers_[static_cast<std::size_t>((w.index + off) % nw)]
                  ->deque.try_steal();
        if (idx.has_value()) steals_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    int made = 0;
    if (idx.has_value()) {
      Slot& s = *slots_[static_cast<std::size_t>(*idx)];
      if (s.mode.load(std::memory_order_acquire) == EngineMode::shared) {
        made = poll_slot(s);
        if (!w.deque.try_push(*idx)) {
          s.in_rotation.store(false, std::memory_order_release);
        }
      } else {
        // Slot left shared mode; drop it and let the controller
        // re-enqueue if it ever comes back.
        s.in_rotation.store(false, std::memory_order_release);
      }
    }
    if (made != 0) {
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
}

}  // namespace mpx::task
