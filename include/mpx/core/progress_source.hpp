// mpx/core/progress_source.hpp
//
// The open half of the collated progress engine (paper Listing 1.1). A
// ProgressSource is one pollable stage — dtype pack/unpack, user async
// things, the collective executor, one stage per transport — registered
// into the World-owned ProgressRegistry. make_vci compiles the registry
// into a per-VCI ordered stage table (a flat array with per-stage hit/call
// counters) that progress_test iterates; the table is immutable after
// World construction publishes the registry, so the hot loop reads it
// without synchronization beyond the VCI lock it already holds.
//
// Out-of-tree subsystems collate without core surgery: register a factory
// in WorldConfig::extra_sources and the stage appears in every VCI's
// pipeline, gated by ProgressMask::progress_user.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mpx/base/status.hpp"

namespace mpx {
class World;
}

namespace mpx::base {
class Doorbell;
}

namespace mpx::core_detail {

struct Vci;

/// Out-of-tree sources see Vci only as an opaque endpoint handle; these
/// accessors expose the coordinates a source needs to index its own state.
int vci_rank(const Vci& v);
int vci_id(const Vci& v);

/// Drive one collated progress pass on `v` (the same compiled stage table
/// progress_test iterates — no extra virtual hop). Entry point for external
/// progress drivers (task::ProgressEngine workers) that hold a resolved
/// Vci& instead of a Stream; returns nonzero when the pass moved anything.
/// Like progress_test it acquires v.mu internally, so callers must not hold
/// any vci/stream-ranked lock.
int vci_poll(Vci& v, unsigned mask);

/// Doorbell plumbing for progress helpers (wait_policy.hpp, "doorbell").
/// Ring the bell of VCI (rank, vci) after making it pollable from outside
/// its own progress (a message sent to it, work queued for it). Costs one
/// fence and one load when nobody sleeps there, and never touches the Vci
/// itself, which may be gone by then.
void ring_vci(World& w, int rank, int vci);
/// `v`'s bell: helpers on `v` sleep on it.
base::Doorbell& vci_bell(Vci& v);
/// True when nothing can become pollable on `v` without a ring: no pending
/// async hooks and no transport traffic in flight. Lock-free.
bool vci_quiet(const Vci& v);
/// Ring `bell` too on every ring of `v`'s bell (null: stop). `bell` must
/// outlive every ring: use helper_bell.
void vci_relay(Vci& v, base::Doorbell* bell);
/// The World-owned bell the engine's shared pollers sleep on.
base::Doorbell& helper_bell(World& w);

/// Speculative-devirtualization tag for the in-tree stages: the engine's
/// scan inlines their (Vci-member) skip checks instead of paying a virtual
/// idle() hop per stage per call — the wait-loop hot path runs the whole
/// empty scan without an indirect call. Out-of-tree sources are `external`
/// and take the virtual idle()/poll() path; semantics are identical.
enum class StageFastGate : std::uint8_t {
  external = 0,  ///< use virtual idle() (default for user sources)
  dtype,         ///< skip when the pack/unpack engine is idle
  async_hooks,   ///< skip when no user async things are registered
  lmt,           ///< skip when no mapped-memory copies are pending
};

/// One pollable progress stage. poll()/idle() run with the target VCI's
/// lock held (the engine serializes per VCI, paper §2.2) and may be
/// invoked concurrently for *different* VCIs — shared source state needs
/// its own synchronization, per-VCI state does not.
class ProgressSource {
 public:
  virtual ~ProgressSource() = default;

  /// Stable stage name for stats and the tracer.
  virtual const char* name() const = 0;

  /// ProgressMask bit gating this stage (progress_dtype/.../progress_user).
  virtual unsigned mask_bit() const = 0;

  /// Cheap skip check: true when this stage provably has no work on `v`,
  /// letting the engine skip the poll entirely (each source owns its own
  /// empty-stage fast path). Return false when unsure — poll() must then
  /// self-gate.
  virtual bool idle(Vci& v) = 0;

  /// Whether idle() is a cheap, usable skip check. Sources whose emptiness
  /// test is no cheaper than the poll itself (transports scan the same
  /// queues either way) return false; the engine then skips the idle() hop
  /// and polls unconditionally, and the stage's `calls` counter counts
  /// every poll including empty ones. Sampled once at compile() — must be
  /// a constant.
  virtual bool has_idle_check() const { return true; }

  /// Fast-gate tag (see StageFastGate). Sampled once at compile() — must
  /// be a constant. Only in-tree sources return non-external values; the
  /// default keeps user sources on the virtual idle() path.
  virtual StageFastGate fast_gate() const { return StageFastGate::external; }

  /// Advance this stage's work on `v`; add to *made for each completion or
  /// forward step observed (the engine early-exits on *made != 0).
  virtual void poll(Vci& v, int* made) = 0;

  /// True when this source holds no unfinished work on `v` that
  /// World::finalize_rank must drain (or that stream_free must refuse on).
  /// Unlike idle() this is a teardown-grade check, not a hot-path gate; the
  /// default keeps sources with no deferred state out of the conjunction.
  /// Called under the VCI lock.
  virtual bool quiescent(Vci& v) { (void)v; return true; }
};

/// One compiled stage table entry. The source/mask halves are fixed at
/// make_vci; the counters are owned by the VCI and mutate under its lock.
/// Cache-line aligned: each VCI's pollers bump these counters on every
/// progress call, so a stage table must not share a line with another
/// rank's heap data.
struct alignas(64) ProgressStage {
  ProgressSource* source = nullptr;
  unsigned mask = 0;
  /// ProgressSource::has_idle_check(), sampled at compile(): false lets the
  /// scan skip the idle() virtual hop for always-poll sources.
  bool check_idle = true;
  /// ProgressSource::fast_gate(), sampled at compile().
  StageFastGate gate = StageFastGate::external;
  std::uint64_t calls = 0;  ///< polls issued (idle-skips excluded)
  std::uint64_t hits = 0;   ///< polls that made progress
};

/// Ordered registry of progress sources, owned by World. add() during
/// World construction only; publish() freezes it before the first
/// make_vci, after which compile() may be called from any thread.
class ProgressRegistry {
 public:
  ProgressRegistry() = default;
  ProgressRegistry(const ProgressRegistry&) = delete;
  ProgressRegistry& operator=(const ProgressRegistry&) = delete;

  void add(std::unique_ptr<ProgressSource> src) {
    expects(!published_, "ProgressRegistry: add() after publish()");
    expects(src != nullptr, "ProgressRegistry: null source");
    sources_.push_back(std::move(src));
  }

  /// Freeze the stage order. No add() afterwards; compile() requires it.
  void publish() { published_ = true; }
  bool published() const { return published_; }

  std::size_t size() const { return sources_.size(); }
  ProgressSource& at(std::size_t i) const { return *sources_[i]; }

  /// Materialize the per-VCI stage table (fresh counters, fixed order).
  std::vector<ProgressStage> compile() const {
    expects(published_, "ProgressRegistry: compile() before publish()");
    std::vector<ProgressStage> table;
    table.reserve(sources_.size());
    for (const auto& src : sources_) {
      table.push_back(ProgressStage{src.get(), src->mask_bit(),
                                    src->has_idle_check(), src->fast_gate(),
                                    0, 0});
    }
    return table;
  }

 private:
  std::vector<std::unique_ptr<ProgressSource>> sources_;
  bool published_ = false;
};

/// Process-wide source factories, appended to every subsequently-created
/// World's registry between the in-tree sources and WorldConfig's
/// extra_sources. This is how optional link-time subsystems collate without
/// a core dependency: a static registrar object in the subsystem's
/// translation unit (pulled in when anything references that TU) registers
/// its factory before main(), so every World a program can build the
/// subsystem's requests on also polls its stage. The collective schedule
/// executor (mpx::coll::ir) registers itself this way.
///
/// Registration must happen during static initialization (single-threaded);
/// the list is read-only afterwards.
using StaticSourceFactory = std::unique_ptr<ProgressSource> (*)(World&);
void register_static_source(StaticSourceFactory make);
const std::vector<StaticSourceFactory>& static_source_factories();

}  // namespace mpx::core_detail
