// TaskQueue: the submit-style async execution layer on top of
// math::ThreadPool's thread budget.
//
// The global ThreadPool runs one blocking parallel_for at a time — the right
// shape for data-parallel kernels, the wrong one for independent jobs that
// should run side by side (one datagen pattern or one served request per
// task). TaskQueue adds that layer: submit(fn) enqueues an opaque job and
// returns a Future for its result; a fixed set of workers (default: the
// pool's thread budget, math::num_threads()) drains the queue FIFO. Every
// worker registers itself with the ThreadPool (register_worker_thread), so
// library code called from a task runs its nested parallel_for serially
// instead of contending for the single-task global pool — T workers each
// running serial kernels preserves the machine's total parallelism.
//
// Deadlock rule: a task must never block on the Future of another *queued*
// task (FIFO workers would starve). Datagen obeys this by construction: only
// the calling (non-worker) thread waits on futures, and tasks read their
// inputs from data that outlives the run.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/future.hpp"

namespace maps::runtime {

class TaskQueue {
 public:
  /// `workers` = 0 sizes from math::num_threads().
  explicit TaskQueue(std::size_t workers = 0);
  ~TaskQueue();

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Enqueue fn for asynchronous execution; the returned future delivers
  /// fn's result (or captured exception).
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>>>
  Future<R> submit(F&& fn) {
    Promise<R> promise;
    Future<R> future = promise.future();
    enqueue([p = std::move(promise), f = std::forward<F>(fn)]() mutable {
      try {
        if constexpr (std::is_void_v<R>) {
          static_assert(!std::is_void_v<R>, "submit: use submit<int> wrappers");
        } else {
          p.set_value(f());
        }
      } catch (...) {
        p.set_exception(std::current_exception());
      }
    });
    return future;
  }

  /// Process-wide queue (the prediction service's default executor). First
  /// call fixes the size.
  static TaskQueue& shared();

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace maps::runtime
