// Minimal promise/future pair for the async execution layer.
//
// A Future<T> is a handle to a value produced by a TaskQueue job (or any
// producer holding the matching Promise<T>). Unlike std::future it is
// copyable — several waiters may share one result — and offers a bounded
// wait (wait_for_ms) and a completion hook (subscribe) for the serve front
// ends. Exceptions thrown by the producer are captured and rethrown from
// get().
#pragma once

#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "math/types.hpp"

namespace maps::runtime {

namespace detail {

template <typename T>
struct SharedState {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<T> value;
  std::exception_ptr error;
  bool done = false;
  std::vector<std::function<void()>> callbacks;
};

}  // namespace detail

template <typename T>
class Future {
 public:
  Future() = default;
  explicit Future(std::shared_ptr<detail::SharedState<T>> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }

  /// Bounded wait: true when delivered within `ms` (<= 0 polls). The
  /// graceful-shutdown drain uses this to stop waiting on stragglers once
  /// the drain deadline is spent.
  bool wait_for_ms(double ms) const {
    maps::require(valid(), "Future::wait_for_ms: empty future");
    std::unique_lock lk(state_->mu);
    if (ms <= 0.0) return state_->done;
    return state_->cv.wait_for(lk, std::chrono::duration<double, std::milli>(ms),
                               [&] { return state_->done; });
  }

  /// Completion hook: `fn` runs exactly once, after the producer delivers
  /// (value or exception) — immediately on the caller's thread when the
  /// future is already done, otherwise on the producer's thread inside
  /// set_value / set_exception. Callbacks must be cheap and non-blocking
  /// (the HTTP front end uses them to hand a finished reply back to its
  /// event loop); never wait on another future from inside one.
  void subscribe(std::function<void()> fn) const {
    maps::require(valid(), "Future::subscribe: empty future");
    {
      std::unique_lock lk(state_->mu);
      if (!state_->done) {
        state_->callbacks.push_back(std::move(fn));
        return;
      }
    }
    fn();  // already delivered: run inline, outside the lock
  }

  /// Block until delivered; return the value or rethrow the producer's
  /// exception. The value is *moved out* — get() is one-shot per future
  /// chain (copies of the same Future share one underlying value).
  T get() {
    maps::require(valid(), "Future::get: empty future");
    std::unique_lock lk(state_->mu);
    state_->cv.wait(lk, [&] { return state_->done; });
    if (state_->error) std::rethrow_exception(state_->error);
    maps::require(state_->value.has_value(), "Future::get: value already taken");
    T out = std::move(*state_->value);
    state_->value.reset();
    return out;
  }

 private:
  std::shared_ptr<detail::SharedState<T>> state_;
};

template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<detail::SharedState<T>>()) {}

  Future<T> future() const { return Future<T>(state_); }

  void set_value(T value) {
    std::vector<std::function<void()>> callbacks;
    {
      std::lock_guard lk(state_->mu);
      maps::require(!state_->done, "Promise::set_value: already satisfied");
      state_->value = std::move(value);
      state_->done = true;
      callbacks.swap(state_->callbacks);
    }
    state_->cv.notify_all();
    for (auto& fn : callbacks) fn();
  }

  void set_exception(std::exception_ptr e) {
    std::vector<std::function<void()>> callbacks;
    {
      std::lock_guard lk(state_->mu);
      maps::require(!state_->done, "Promise::set_exception: already satisfied");
      state_->error = std::move(e);
      state_->done = true;
      callbacks.swap(state_->callbacks);
    }
    state_->cv.notify_all();
    for (auto& fn : callbacks) fn();
  }

 private:
  std::shared_ptr<detail::SharedState<T>> state_;
};

}  // namespace maps::runtime
