#include "runtime/task_queue.hpp"

#include <algorithm>

#include "math/parallel.hpp"

namespace maps::runtime {

TaskQueue::TaskQueue(std::size_t workers) {
  const std::size_t n =
      std::max<std::size_t>(1, workers == 0 ? maps::math::num_threads() : workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

TaskQueue::~TaskQueue() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void TaskQueue::enqueue(std::function<void()> job) {
  {
    std::lock_guard lk(mu_);
    maps::require(!stop_, "TaskQueue::submit: queue is shut down");
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void TaskQueue::worker_loop() {
  // Nested parallel_for from tasks runs serially (see header).
  maps::math::ThreadPool::register_worker_thread();
  std::unique_lock lk(mu_);
  for (;;) {
    cv_.wait(lk, [this] { return stop_ || !jobs_.empty(); });
    if (jobs_.empty()) return;  // stop_ && drained
    auto job = std::move(jobs_.front());
    jobs_.pop_front();
    lk.unlock();
    job();  // submit() wrappers capture exceptions into the promise
    lk.lock();
  }
}

TaskQueue& TaskQueue::shared() {
  static TaskQueue queue;
  return queue;
}

}  // namespace maps::runtime
