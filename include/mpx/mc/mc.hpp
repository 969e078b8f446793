// mpx/mc/mc.hpp
//
// mpx::mc — deterministic concurrency model checking for the lock-free
// progress paths (loom/relacy style).
//
// The checker runs a small bounded scenario many times, once per distinct
// thread interleaving, by routing every instrumented atomic / lock operation
// through a cooperative virtual-thread scheduler and exploring the schedule
// tree with DFS under a preemption bound. On top of the interleaving it
// models the memory orders the runtime actually uses:
//
//   - release stores / acquire loads establish happens-before (vector
//     clocks); seq_cst is treated as acquire+release over the (already
//     sequentially consistent) interleaving.
//   - relaxed loads may return STALE values: any store newer than the
//     reader's coherence floor is a legal result, and each choice is a
//     DFS branch. Relaxed loads never synchronize.
//   - plain (non-atomic) data annotated with MPX_MC_PLAIN_READ/WRITE is
//     race-checked with vector clocks: an unordered access pair is a
//     failure even when the explored interleaving happened to produce the
//     right value. This is what catches "completion flag read relaxed,
//     payload read without happens-before" — a bug TSan can only find if
//     the OS scheduler produces the interleaving, and the hardware the
//     reordering.
//
// Production builds (MPX_MODEL_CHECK off, the default) compile the shims in
// mpx/mc/sync.hpp straight down to the raw std::/base:: primitives and every
// macro below to nothing: zero overhead by construction.
//
// This header is safe to include from any build flavor. The explorer itself
// (src/mc/explorer.cpp) is only compiled when MPX_MODEL_CHECK is on.
#pragma once

#ifndef MPX_MODEL_CHECK
#define MPX_MODEL_CHECK 0
#endif

#if MPX_MODEL_CHECK

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace mpx::mc {

/// Exploration budget and policy for one explore() call. Defaults read the
/// MPX_MC_* environment knobs (see docs/model_checking.md).
struct Options {
  Options();  // env-seeded defaults (MPX_MC_MAX_SCHEDULES, ...)

  const char* name = "scenario";  ///< used in reports and replay dump names
  long max_schedules;             ///< MPX_MC_MAX_SCHEDULES (default 20000)
  int preemption_bound;           ///< MPX_MC_PREEMPTION_BOUND (default 2)
  long max_steps;                 ///< per-schedule livelock cutoff
  bool stale_relaxed_loads = true;
  /// Force one specific schedule instead of exploring: the `replay` string
  /// printed by a failing run (also via the MPX_MC_REPLAY env var).
  std::string replay;
};

/// Outcome of one explore() call.
struct Result {
  std::string name;
  bool failed = false;
  std::string failure;     ///< first property violation (empty when ok)
  std::string replay;      ///< decision string reproducing the last schedule
  std::string dump_path;   ///< replay dump file written on failure
  long schedules = 0;      ///< schedules executed
  long points = 0;         ///< total schedule points across all schedules
  bool exhausted = false;  ///< DFS explored every schedule within the bound
  bool truncated = false;  ///< stopped at max_schedules
  bool bound_limited = false;  ///< alternatives skipped by preemption bound

  bool ok() const { return !failed; }
  std::string summary() const;
};

/// Run `body` once per explored schedule. The body executes on virtual
/// thread 0; it may spawn up to 7 more mc::thread workers and must join
/// them before returning. Each run must be self-contained and deterministic
/// (fresh state per run, no wall-clock branching, no RNG).
Result explore(const Options& opt, const std::function<void()>& body);

/// A virtual thread participating in the current exploration. Must be
/// joined before the spawning scope ends.
class thread {
 public:
  explicit thread(std::function<void()> fn);
  thread(const thread&) = delete;
  thread& operator=(const thread&) = delete;
  ~thread() { join(); }

  void join();

 private:
  int id_ = -1;
  bool joined_ = false;
};

/// Cooperative scheduling hint: hand the token to the next runnable virtual
/// thread (deterministic round-robin, no DFS branch, no preemption cost).
/// Every spin loop in a scenario MUST yield, or the livelock detector will
/// flag it.
void yield();

/// Scenario invariant. A violation fails the whole exploration and dumps
/// the schedule that produced it. Safe to call from any virtual thread.
void check(bool ok, const char* what);

/// Race-checked plain-data access declarations (see MPX_MC_PLAIN_* below).
void plain_read(const void* addr, const char* what);
void plain_write(const void* addr, const char* what);

namespace detail {
/// True when the calling thread is a virtual thread of an active session
/// (advisory; the op entry points re-check under the session lock).
bool modeled();

// Atomic modeling hooks used by mc::atomic. Each returns true when the op
// was modeled (caller then mirrors the value into real storage relaxed) and
// false when the caller must perform the real operation itself (no session,
// or the session degraded to free-run after a failure). `seed` is the
// current real value, used to lazily register the location.
bool mc_load(const void* loc, std::uint64_t seed, int mo, const char* what,
             std::uint64_t* out);
bool mc_store(const void* loc, std::uint64_t seed, std::uint64_t val, int mo,
              const char* what);
bool mc_rmw_exchange(const void* loc, std::uint64_t seed, std::uint64_t val,
                     int mo, const char* what, std::uint64_t* old_out);
bool mc_rmw_add(const void* loc, std::uint64_t seed, std::uint64_t delta,
                int mo, const char* what, std::uint64_t* old_out);
bool mc_cas(const void* loc, std::uint64_t seed, std::uint64_t expected,
            std::uint64_t desired, int mo, const char* what,
            std::uint64_t* observed, bool* success);
/// Location is being destroyed (pool reuse / teardown). Fails the session
/// if a virtual thread is still blocked on it.
void mc_forget_atomic(const void* loc);
/// Block the calling virtual thread until the next modeled store to `loc`.
/// Returns false when not modeled (caller spins on the real value).
bool mc_wait_change(const void* loc);
/// FUTEX_WAIT model: block the calling virtual thread while `loc` holds
/// `expected`, until mc_futex_wake(loc) — never on a timeout. False when
/// not modeled (caller then waits on the real word).
bool mc_futex_wait(const void* loc, std::uint64_t seed,
                   std::uint64_t expected);
/// FUTEX_WAKE model: wake every virtual thread blocked in mc_futex_wait on
/// `loc`. False when not modeled.
bool mc_futex_wake(const void* loc);
/// Fence model (seq_cst: the fencing thread's later loads read no store
/// older than the newest at the fence). False when not modeled.
bool mc_fence(int mo);

// Mutex modeling hooks used by mc::basic_mutex. The modeled grant happens
// BEFORE the real lock is touched, so the real mutex is always free when a
// modeled owner acquires it and free-run degradation stays seamless.
void mtx_lock(const void* m, bool recursive, const char* what);
bool mtx_try_lock(const void* m, bool recursive, const char* what,
                  bool* acquired);
void mtx_unlock(const void* m);
/// Fails the session when the mutex is destroyed while held or awaited
/// (the stream_free publish-under-lock bug class).
void mtx_destroy(const void* m);
}  // namespace detail

/// Seeded-mutation self-test toggles: reintroduce real (or prototyped)
/// ordering bugs so the test suite can prove the checker catches them.
/// Test-only; never set outside tests/test_mc_*.cpp.
namespace mut {
/// PR 1 bug #1: MPIX_Request_is_complete load weakened to relaxed — the
/// completion flag no longer orders the payload for the polling thread.
inline bool weak_is_complete = false;
/// PR 1 bug #2: World::stream_free publishes VCI reusability while still
/// holding the VCI mutex, letting a concurrent stream_create destroy the
/// mutex mid-unlock.
inline bool stream_free_publish_under_lock = false;
/// base::Doorbell::ring skips its fence — the sleeper count it then reads
/// relaxed may be stale, so a sleeper that registered before the ringer
/// looked is never woken.
inline bool doorbell_ring_unfenced = false;
/// The shared LMT copy's count (LmtShare::copied) weakened to relaxed —
/// reaching the total no longer orders the peer's chunk copies before the
/// receiver completes.
inline bool weak_lmt_done = false;
/// The shm ring's lap-word publish weakened to relaxed — a published cell
/// no longer orders the producer's header and payload writes before the
/// consumer's read-out.
inline bool weak_shm_publish = false;
}  // namespace mut

}  // namespace mpx::mc

/// Declare a plain (non-atomic) access for vector-clock race detection.
/// `addr` is the identity of the datum, `what` a static-storage label.
#define MPX_MC_PLAIN_WRITE(addr, what) ::mpx::mc::plain_write((addr), (what))
#define MPX_MC_PLAIN_READ(addr, what) ::mpx::mc::plain_read((addr), (what))

#else  // !MPX_MODEL_CHECK — production: everything compiles to nothing.

#define MPX_MC_PLAIN_WRITE(addr, what) ((void)0)
#define MPX_MC_PLAIN_READ(addr, what) ((void)0)

#endif  // MPX_MODEL_CHECK
