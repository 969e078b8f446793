// mpx/task/coro.hpp
//
// C++20 coroutines over the explicit progress engine. The paper's §2.2:
// "the async/await syntax in some programming languages provides a concise
// method to describe the wait patterns in a task" — this header makes that
// literal: `co_await` on a Request (or any is_complete-style predicate)
// suspends the coroutine and registers ONE MPIX_Async hook that polls the
// condition with no side effects and resumes the coroutine from within
// stream progress when it holds.
//
// A coroutine body therefore runs inside progress polls after its first
// suspension: keep the segments between co_awaits lightweight (§4.2), and
// never invoke progress recursively from inside one.
//
// Example (the Fig. 3(c) multi-wait task, written linearly):
//
//   task::Coro pingpong(Comm c, Stream s) {
//     std::int32_t v = 42;
//     Request sr = c.isend(&v, 1, dt, 1, 0);
//     co_await task::completion(sr, s);       // wait block #1
//     std::int32_t r;
//     Request rr = c.irecv(&r, 1, dt, 1, 0);
//     co_await task::completion(rr, s);       // wait block #2
//   }
//
//   auto coro = pingpong(comm, stream);
//   coro.wait(stream);
#pragma once

#include <atomic>
#include <coroutine>
#include <exception>
#include <functional>
#include <memory>

#include "mpx/core/async.hpp"
#include "mpx/core/request.hpp"
#include "mpx/core/stream.hpp"
#include "mpx/core/waittest.hpp"

namespace mpx::task {

/// Eager fire-and-forget coroutine handle. The coroutine starts running
/// immediately; `done()` is one atomic read. Destroying the Coro after
/// completion releases the frame; destroying it while suspended is an
/// error (the progress hook still references the frame), so drive progress
/// to completion first — by contract, like an in-flight Request.
class Coro {
 public:
  struct promise_type {
    std::shared_ptr<std::atomic<bool>> done_flag =
        std::make_shared<std::atomic<bool>>(false);

    Coro get_return_object() {
      return Coro(std::coroutine_handle<promise_type>::from_promise(*this),
                  done_flag);
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    /// Final suspend: the frame survives until the Coro handle destroys it,
    /// so done() remains valid.
    std::suspend_always final_suspend() noexcept {
      // Pairs with the acquire load in Coro::done() — same shared flag
      // reached through another member. mpxlint: allow(memory-order)
      done_flag->store(true, std::memory_order_release);
      return {};
    }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };

  Coro() = default;
  Coro(Coro&& o) noexcept : h_(o.h_), done_(std::move(o.done_)) {
    o.h_ = nullptr;
  }
  Coro& operator=(Coro&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = o.h_;
      done_ = std::move(o.done_);
      o.h_ = nullptr;
    }
    return *this;
  }
  ~Coro() { destroy(); }

  /// True once the coroutine ran to completion (one atomic read).
  bool done() const {
    // Pairs with the release store in promise_type::final_suspend() —
    // same shared flag, another member. mpxlint: allow(memory-order)
    return done_ != nullptr && done_->load(std::memory_order_acquire);
  }

  /// Drive `stream`'s progress until the coroutine completes.
  void wait(const Stream& stream) const {
    progress_until(stream, [this] { return done(); });
  }

 private:
  Coro(std::coroutine_handle<promise_type> h,
       std::shared_ptr<std::atomic<bool>> done)
      : h_(h), done_(std::move(done)) {}
  void destroy() {
    if (h_ != nullptr) {
      expects(done(), "Coro: destroyed while still suspended");
      h_.destroy();
      h_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> h_ = nullptr;
  std::shared_ptr<std::atomic<bool>> done_;
};

namespace detail {

/// Awaitable that suspends until `ready()` returns true, polled by an
/// MPIX_Async hook on `stream`.
struct PredicateAwaitable {
  std::function<bool()> ready_fn;
  Stream stream;

  bool await_ready() const { return ready_fn(); }

  void await_suspend(std::coroutine_handle<> h) const {
    // One hook per suspension: polls the predicate (side-effect-free by
    // contract) and resumes the coroutine inside progress when it holds.
    async_start(
        [fn = ready_fn, h]() -> AsyncResult {
          if (!fn()) return AsyncResult::pending;
          h.resume();
          return AsyncResult::done;
        },
        stream);
  }

  void await_resume() const {}
};

}  // namespace detail

/// Awaitable for a request's completion: `co_await completion(req, stream)`.
/// Uses only Request::is_complete (§3.4) — no progress side effects from
/// the polling itself.
inline detail::PredicateAwaitable completion(Request req,
                                             const Stream& stream) {
  expects(stream.valid(), "completion: invalid stream");
  return detail::PredicateAwaitable{
      [req = std::move(req)] { return req.is_complete(); }, stream};
}

/// Awaitable for an arbitrary side-effect-free condition.
inline detail::PredicateAwaitable until(std::function<bool()> ready,
                                        const Stream& stream) {
  expects(static_cast<bool>(ready) && stream.valid(),
          "until: invalid arguments");
  return detail::PredicateAwaitable{std::move(ready), stream};
}

}  // namespace mpx::task
