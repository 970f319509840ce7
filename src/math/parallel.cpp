#include "math/parallel.hpp"

#include <algorithm>
#include <cstdlib>

namespace maps::math {

thread_local bool ThreadPool::in_worker_ = false;

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("MAPS_THREADS")) {
      long n = std::strtol(env, nullptr, 10);
      if (n > 0) return static_cast<std::size_t>(n);
    }
    std::size_t hw = std::thread::hardware_concurrency();
    return hw == 0 ? std::size_t{4} : hw;
  }());
  return pool;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads) - 1;  // caller participates
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  in_worker_ = true;
  std::unique_lock lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [this] { return stop_ || current_ != nullptr; });
    if (stop_) return;
    Task* task = current_;
    // The caller waits until active_workers drains back to zero, so `task`
    // (a stack object in parallel_for_chunked) cannot dangle while we hold a
    // claim on it.
    ++task->active_workers;
    lk.unlock();
    run_task(*task);
    lk.lock();
    if (--task->active_workers == 0 && task->remaining == 0) cv_done_.notify_all();
    // Avoid spinning on the same finished task before the caller clears it.
    while (current_ == task && !stop_ && task->next >= task->end) {
      cv_work_.wait(lk);
    }
  }
}

void ThreadPool::run_task(Task& task) {
  for (;;) {
    std::size_t b, e;
    {
      std::lock_guard lk(mu_);
      if (task.next >= task.end) return;
      b = task.next;
      e = std::min(task.end, b + task.chunk);
      task.next = e;
    }
    task.body(b, e);
    {
      std::lock_guard lk(mu_);
      task.remaining -= (e - b);
      if (task.remaining == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn, std::size_t min_chunk) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // Serial fallback: nested call from a worker, tiny range, or no helpers.
  if (in_worker_ || workers_.empty() || n <= min_chunk) {
    fn(begin, end);
    return;
  }
  const std::size_t nthreads = workers_.size() + 1;
  const std::size_t chunk =
      std::max(min_chunk, (n + nthreads * 4 - 1) / (nthreads * 4));
  Task task;
  task.body = fn;
  task.begin = begin;
  task.end = end;
  task.chunk = chunk;
  task.next = begin;
  task.remaining = n;
  {
    std::lock_guard lk(mu_);
    current_ = &task;
  }
  cv_work_.notify_all();
  run_task(task);  // caller participates
  {
    std::unique_lock lk(mu_);
    cv_done_.wait(lk, [&task] {
      return task.remaining == 0 && task.active_workers == 0;
    });
    current_ = nullptr;
  }
  cv_work_.notify_all();  // release workers parked on the finished task
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  parallel_for_chunked(
      begin, end,
      [&fn](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) fn(i);
      },
      grain);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn, std::size_t grain) {
  ThreadPool::instance().parallel_for(begin, end, fn, grain);
}

void parallel_for_chunked(std::size_t begin, std::size_t end,
                          const std::function<void(std::size_t, std::size_t)>& fn,
                          std::size_t min_chunk) {
  ThreadPool::instance().parallel_for_chunked(begin, end, fn, min_chunk);
}

std::size_t num_threads() { return ThreadPool::instance().size() + 1; }

// The worker flag is read and written only in this file: an inline access
// from another translation unit goes through the thread_local wrapper,
// which UBSan's null check misreports.
void ThreadPool::register_worker_thread() { in_worker_ = true; }

bool ThreadPool::is_worker_thread() { return in_worker_; }

ScopedWorkerThread::ScopedWorkerThread() : was_worker_(ThreadPool::in_worker_) {
  ThreadPool::in_worker_ = true;
}

ScopedWorkerThread::~ScopedWorkerThread() { ThreadPool::in_worker_ = was_worker_; }

}  // namespace maps::math
