// mpx/core/async.hpp
//
// The MPIX_Async extension (§3.3): user-defined progress hooks collated into
// the runtime's own progress engine ("interoperable MPI progress").
//
//   - async_start(poll_fn, extra_state, stream): register a hook. poll_fn is
//     invoked on every progress call for the stream until it returns
//     AsyncResult::done. Before returning done, poll_fn must release the
//     application state behind extra_state; the runtime frees its own
//     bookkeeping afterwards.
//   - AsyncThing::spawn(...): add follow-on tasks from inside poll_fn. They
//     are staged and registered after poll_fn returns (avoids recursion and
//     re-entrant queue mutation, as the paper specifies).
//
// Restrictions (same as the paper's): poll_fn runs under the stream's serial
// context — it must not invoke progress recursively (wait/test/
// stream_progress) and should stay lightweight (§4.2). Use
// Request::is_complete() inside poll_fn to observe MPI operations.
#pragma once

#include <functional>
#include <vector>

#include "mpx/base/intrusive.hpp"
#include "mpx/base/pool.hpp"
#include "mpx/core/stream.hpp"

namespace mpx {

/// Result of one poll of an async task.
enum class AsyncResult : int {
  done = 0,        ///< task finished; state has been cleaned up
  pending = 1,     ///< task still in flight (MPIX_ASYNC_PENDING)
  noprogress = 1,  ///< alias used by the paper's listings
};

class AsyncThing;
namespace core_detail {
struct AsyncRuntime;
}

/// User progress hook. Paper-faithful C signature: retrieve the registered
/// state with thing.state().
using AsyncPollFn = AsyncResult (*)(AsyncThing& thing);

/// Opaque per-task context passed to poll_fn. Combines the application state
/// with implementation bookkeeping (paper §3.3).
class AsyncThing {
 public:
  /// Optional cleanup for the registered extra_state. Invoked exactly once
  /// when the hook is destroyed WITHOUT its poll_fn having returned done —
  /// stream_free / World teardown dropping pending hooks, or a hook parked
  /// in a freed stream's inbox. When poll_fn returns done it has already
  /// released the state (paper contract) and the deleter is disarmed.
  using StateDeleter = void (*)(void*);

  /// MPIX_Async_get_state: the extra_state registered at async_start/spawn.
  void* state() const { return state_; }

  /// The stream this task is attached to.
  Stream stream() const { return stream_; }

  /// MPIX_Async_spawn: register a follow-on task. Staged inside this thing
  /// and processed after the current poll_fn returns. `state_deleter`
  /// (optional) cleans up extra_state on non-done destruction paths.
  void spawn(AsyncPollFn fn, void* extra_state, const Stream& stream,
             StateDeleter state_deleter = nullptr);

  ~AsyncThing() {
    if (deleter_ != nullptr && state_ != nullptr) deleter_(state_);
  }

  /// One AsyncThing is allocated per registered hook; storage is recycled
  /// through a process-wide pool. The pool is thread-safe (not per-VCI)
  /// because things are allocated on the registering thread but freed by
  /// whichever thread polls the target VCI.
  static void* operator new(std::size_t n);
  static void operator delete(void* p) noexcept;

 private:
  friend struct core_detail::AsyncRuntime;
  AsyncThing() = default;
  AsyncThing(const AsyncThing&) = delete;
  AsyncThing& operator=(const AsyncThing&) = delete;

  AsyncPollFn fn_ = nullptr;
  void* state_ = nullptr;
  StateDeleter deleter_ = nullptr;
  Stream stream_;
  // Staged spawns (drained by the runtime after poll_fn returns).
  struct SpawnRec {
    AsyncPollFn fn;
    void* state;
    Stream stream;
    StateDeleter deleter;
  };
  std::vector<SpawnRec> spawned_;
  base::ListHook hook_;
};

namespace core_detail {
/// Process-wide storage pool behind AsyncThing::operator new/delete
/// (capacity: 1024 parked blocks per shard).
inline base::FixedBlockPool& async_thing_pool() {
  static base::FixedBlockPool pool("async-thing", sizeof(AsyncThing), 1024);
  return pool;
}
}  // namespace core_detail

inline void* AsyncThing::operator new(std::size_t n) {
  return core_detail::async_thing_pool().allocate(n);
}

inline void AsyncThing::operator delete(void* p) noexcept {
  core_detail::async_thing_pool().deallocate(p);
}

/// MPIX_Async_start: attach a user progress hook to `stream`.
/// `state_deleter` (optional) is invoked on extra_state if the hook is
/// destroyed before poll_fn returns done (see AsyncThing::StateDeleter).
void async_start(AsyncPollFn fn, void* extra_state, const Stream& stream,
                 AsyncThing::StateDeleter state_deleter = nullptr);

/// C++ convenience: register a callable polled until it returns done.
/// The callable is owned by the runtime and destroyed after done.
void async_start(std::function<AsyncResult()> fn, const Stream& stream);

}  // namespace mpx
