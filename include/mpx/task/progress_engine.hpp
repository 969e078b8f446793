// mpx/task/progress_engine.hpp
//
// Adaptive asynchronous progress engine (ROADMAP item 4): owns the per-VCI
// decision the paper leaves to the application — who drives progress.
// "Asynchronous MPI for the Masses" (Wittmann & Hager) shows the right
// answer is workload-dependent and shifts at runtime: a dedicated helper
// thread wins when the application computes through communication, and
// burns a core for nothing when the application polls anyway. The engine
// samples what is actually happening and moves each attached VCI between
// three modes:
//
//   inline    — the application polls; the engine stays away entirely.
//   shared    — the engine's one shared poller serves the VCI: a
//               task::ProgressThread whose poll (poll_shared) polls the
//               next shared VCI, one per call, round-robin over the slot
//               table. A slot's mode is its only rotation membership.
//   dedicated — the engine owns a task::ProgressThread serving this single
//               hot VCI (the classic async-progress-thread shape, paid only
//               while it earns). Started on promotion, stopped on demotion.
//
// The shared poller starts on the first promotion to shared and runs until
// stop(). WorldConfig::progress_engine.max_workers caps engine polling
// threads: the shared poller plus live dedicated helpers.
//
// A controller thread ticks every progress_engine.epoch_us and samples, per
// attached VCI: application progress calls (total progress_calls minus the
// engine's own polls), pending work (in-flight requests plus async hooks),
// the engine's own poll/hit rate, and the wait-ladder rung occupancy from
// wait_policy.hpp (waiters that fell off the spin rung are making empty
// polls — background progress cuts their latency). Transitions take
// EnginePolicy::kHysteresis consecutive epochs of the same signal, so the
// controller never flaps at a threshold; promotions that would exceed the
// worker ceiling are deferred, not dropped. The decision rules live in
// EnginePolicy, pure and deterministic, so tests drive them with injected
// samples.
//
// The shared poller calls core_detail::vci_poll on the resolved Vci — the
// same compiled stage table every progress_test scan runs, no new virtual
// hops on the poll path — and every engine thread idles through
// core_detail::poll_until: on a doorbell while the VCIs it serves are quiet
// (a dedicated helper on its VCI's bell, the shared poller on the World's
// helper bell, to which every attached VCI relays its rings), on the
// spin/yield/sleep ladder otherwise. stats().worker_rungs is the evidence
// the overlap bench checks in.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mpx/base/thread.hpp"
#include "mpx/core/config.hpp"
#include "mpx/core/stream.hpp"
#include "mpx/core/wait_policy.hpp"
#include "mpx/core/world.hpp"

namespace mpx::task {

class ProgressThread;

/// Who drives progress on an attached VCI right now.
enum class EngineMode : std::uint8_t {
  inline_poll = 0,  ///< application threads poll; engine hands off
  shared = 1,       ///< served by the engine's round-robin shared poller
  dedicated = 2,    ///< an engine-owned ProgressThread serves this VCI alone
};

/// One epoch's observations for one VCI, as the controller samples them
/// (tests inject these directly into EnginePolicy).
struct EngineSample {
  /// Progress calls on the VCI this epoch NOT issued by the engine.
  std::uint64_t app_polls = 0;
  /// Engine polls on the VCI this epoch, and how many made progress.
  std::uint64_t engine_polls = 0;
  std::uint64_t engine_hits = 0;
  /// In-flight requests plus linked async/collective hooks on the VCI at
  /// sample time (is work pending?).
  std::int64_t pending = 0;
  /// Wait-ladder pauses by blocking waiters on this VCI this epoch that
  /// landed past the spin rung (yield + sleep): polls happening, but
  /// empty and backed off.
  std::uint64_t wait_backoffs = 0;
  /// Bell waits the VCI's engine poller started this epoch: it found every
  /// VCI it serves quiet and slept until rung (wait_policy.hpp). An epoch
  /// with naps, or with no engine poll at all (inside one long wait), is a
  /// slept epoch: it costs no core, so it holds the mode instead of
  /// reading cold.
  std::uint64_t engine_naps = 0;
};

/// The promote/demote decision rules, factored out of the runtime so tests
/// prove the transitions, hysteresis, and ceiling deferral with injected
/// samples. One instance per attached VCI (it carries the streak state);
/// deterministic: decide() depends only on construction config, call
/// history, and arguments.
class EnginePolicy {
 public:
  /// A VCI with work pending whose application issued fewer progress calls
  /// than this in an epoch is starved (the app is not driving it).
  static constexpr std::uint64_t kPromoteAppPolls = 4;
  /// An idle VCI (nothing pending) whose engine polled it at a hit rate at
  /// or below this, without ever sleeping on its bell, walks one step down
  /// the mode ladder.
  static constexpr double kDemoteHitRate = 0.01;
  /// Consecutive epochs a promote/demote signal must persist before the
  /// transition is taken (flap damping at the thresholds).
  static constexpr int kHysteresis = 2;

  explicit EnginePolicy(const ProgressEngineConfig& cfg)
      : dedicate_hit_rate_(cfg.dedicate_hit_rate) {}

  /// One epoch's decision. `can_grow` reports whether the worker budget
  /// admits the promotion the policy may want this epoch (controller
  /// enforces progress_engine.max_workers); a matured promote streak with
  /// can_grow == false is held, not reset — the promotion is deferred.
  EngineMode decide(EngineMode current, const EngineSample& s, bool can_grow);

 private:
  double dedicate_hit_rate_;
  int promote_streak_ = 0;
  int demote_streak_ = 0;
};

/// The engine runtime. RAII: the controller thread starts on construction
/// (the shared poller starts lazily on the first promotion to shared,
/// dedicated helpers on each promotion to dedicated) and everything stops
/// and joins in stop()/the destructor. Constructing a World never creates
/// one of these — the engine is opt-in, owned by the application or
/// benchmark, configured through WorldConfig::progress_engine.
///
/// Threading contract: engine threads only ever poll progress and descend
/// the wait-ladder backoff — they block on nothing and acquire no
/// vci/stream-ranked lock themselves (the poll takes the VCI lock
/// internally, same as every application progress call). attach/detach/
/// mode_of/stats may be called from any thread but not from inside a progress
/// callback: the controller joins dedicated helpers while holding the
/// engine's mutex, so a helper blocking on that mutex would deadlock.
/// stop() is idempotent and safe to race with the destructor.
///
/// Detach handoff: once detach(stream) returns, no engine thread touches
/// the stream's VCI again until it is re-attached, so the caller may
/// stream_free() it. A stream must be detached before it is freed; a
/// later attach of a recycled stream (same rank and VCI id) binds the new
/// VCI and restarts that slot's sampling and hysteresis from scratch.
class ProgressEngine {
 public:
  explicit ProgressEngine(World& world);
  ~ProgressEngine();

  ProgressEngine(const ProgressEngine&) = delete;
  ProgressEngine& operator=(const ProgressEngine&) = delete;

  /// Put `stream`'s VCI under engine management (starting mode: inline).
  /// No-op if already attached.
  void attach(const Stream& stream);

  /// Stop managing `stream`'s VCI: the engine hands progress back to the
  /// application (mode reads inline_poll afterwards). On return no engine
  /// thread is polling the VCI, so the stream may be freed.
  void detach(const Stream& stream);

  /// Current mode of an attached stream (inline_poll if never attached).
  EngineMode mode_of(const Stream& stream) const;

  /// Stop the controller, the shared poller and every dedicated helper and
  /// join them. Idempotent.
  void stop();

  struct VciStats {
    int rank = 0;
    int vci = 0;
    EngineMode mode = EngineMode::inline_poll;
    std::uint64_t engine_polls = 0;
    std::uint64_t engine_hits = 0;
  };
  struct Stats {
    std::vector<VciStats> vcis;
    std::uint64_t epochs = 0;      ///< controller ticks so far
    std::uint64_t promotions = 0;  ///< inline->shared + shared->dedicated
    std::uint64_t demotions = 0;   ///< dedicated->shared + shared->inline
    /// Always 0: the one shared poller has no peer to steal from. Kept so
    /// benchmark reports keep their column.
    std::uint64_t steals = 0;
    /// Polling threads alive now: the shared poller plus dedicated helpers
    /// (never more than progress_engine.max_workers).
    int workers = 0;
    /// Aggregate idle-backoff rung occupancy of the shared poller and every
    /// dedicated helper, past and present (monotonic). An idle engine on
    /// quiet VCIs accumulates `bell` (the timed ladder's `sleep` otherwise)
    /// — the not-burning-a-core evidence.
    core_detail::WaitLadderCounters::Snapshot worker_rungs;
  };
  Stats stats() const;

 private:
  struct Slot;

  void controller_loop();
  int poll_shared();
  bool shared_quiet();
  std::uint64_t serving_naps(const Slot& s) const;
  void bell_in(Slot& s);
  void sample_and_decide();
  void apply_transition(Slot& s, EngineMode next);
  int poll_slot(Slot& s);
  void prime(Slot& s);
  void retire_helper(Slot& s);
  int live_threads() const;

  World& world_;
  ProgressEngineConfig cfg_;

  /// Fixed-capacity slot table published like the core VCI tables: slots_
  /// never reallocates, slot_count_ is the release-published length, so
  /// the shared poller indexes it lock-free while attach() appends.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<int> slot_count_{0};
  /// Serializes attach/detach, mode transitions and stats().
  mutable std::mutex attach_mu_;

  /// The shared poller: started on the first promotion to shared
  /// (attach_mu_), stopped only by stop().
  std::unique_ptr<ProgressThread> shared_;
  /// Next slot the shared poller considers (shared poller only).
  int shared_next_ = 0;
  /// Slot index the shared poller is polling, or -1: detach() waits until
  /// it moves off the slot being detached.
  std::atomic<int> shared_polling_{-1};
  int helpers_ = 0;  ///< live dedicated helpers (attach_mu_)
  /// Rungs of dedicated helpers already stopped (attach_mu_).
  core_detail::WaitLadderCounters::Snapshot retired_rungs_;

  std::atomic<bool> stop_{false};
  std::once_flag join_once_;

  std::atomic<std::uint64_t> epochs_{0};
  std::atomic<std::uint64_t> promotions_{0};
  std::atomic<std::uint64_t> demotions_{0};

  base::ScopedThread controller_;
};

}  // namespace mpx::task
