// mpx/task/future.hpp
//
// Minimal future/promise integrated with the explicit progress engine: a
// Future's get() drives stream_progress instead of blocking a kernel thread,
// so asynchronous values produced inside poll callbacks (async hooks,
// continuations, notifier callbacks) flow to consumers without any
// additional synchronization machinery.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <utility>

#include "mpx/core/stream.hpp"
#include "mpx/core/waittest.hpp"

namespace mpx::task {

namespace detail {
template <class T>
struct FutureState {
  std::atomic<bool> ready{false};
  std::optional<T> value;  // written once before `ready` is published
};
}  // namespace detail

template <class T>
class Future;

/// Single-assignment producer side.
template <class T>
class Promise {
 public:
  Promise() : state_(std::make_shared<detail::FutureState<T>>()) {}

  Future<T> get_future() const;

  /// Publish the value (once). Safe from any context, including poll
  /// callbacks running inside progress.
  void set_value(T v) {
    expects(!state_->ready.load(std::memory_order_acquire),
            "Promise::set_value: value already set");
    state_->value.emplace(std::move(v));
    state_->ready.store(true, std::memory_order_release);
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Consumer side; copyable (shared state).
template <class T>
class Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }

  /// One atomic read; no progress side effects (the is_complete analog).
  bool ready() const {
    return state_ != nullptr && state_->ready.load(std::memory_order_acquire);
  }

  /// Drive `stream`'s progress until the value arrives, then return it.
  const T& get(const Stream& stream) const {
    expects(valid(), "Future::get: invalid future");
    progress_until(stream, [this] { return ready(); });
    return *state_->value;
  }

 private:
  template <class U>
  friend class Promise;
  explicit Future(std::shared_ptr<detail::FutureState<T>> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::FutureState<T>> state_;
};

template <class T>
Future<T> Promise<T>::get_future() const {
  return Future<T>(state_);
}

}  // namespace mpx::task
