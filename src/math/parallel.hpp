// Minimal fixed-size thread pool with a blocking parallel_for.
//
// The pool is a process-wide singleton sized from MAPS_THREADS (env) or
// hardware_concurrency(). Nested parallel_for calls from worker threads run
// serially, so library code can use parallel_for freely without deadlock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace maps::math {

class ThreadPool {
 public:
  /// Global pool. First call fixes the size.
  static ThreadPool& instance();

  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(i) for i in [begin, end), blocking until all complete.
  /// Work is split into contiguous chunks of at least `grain` iterations.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1);

  /// Run fn(chunk_begin, chunk_end) over contiguous ranges (less call overhead).
  void parallel_for_chunked(std::size_t begin, std::size_t end,
                            const std::function<void(std::size_t, std::size_t)>& fn,
                            std::size_t min_chunk = 1);

  /// Register the calling thread as a pool-equivalent worker: nested
  /// parallel_for calls from it run serially inline, exactly as they do from
  /// the pool's own workers. The runtime TaskQueue marks its workers this
  /// way so concurrently executing tasks never contend for the single-task
  /// global pool. Idempotent; scoped for the thread's lifetime.
  static void register_worker_thread();
  static bool is_worker_thread();

 private:
  friend class ScopedWorkerThread;

  struct Task {
    std::function<void(std::size_t, std::size_t)> body;
    std::size_t begin = 0, end = 0, chunk = 1;
    std::size_t next = 0;        // next unclaimed index
    std::size_t remaining = 0;   // iterations not yet finished
    int active_workers = 0;      // workers currently inside run_task
  };

  void worker_loop();
  void run_task(Task& task);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Task* current_ = nullptr;
  bool stop_ = false;
  static thread_local bool in_worker_;
};

/// Runs the calling thread as a pool-equivalent worker for the guard's
/// lifetime, so its parallel_for calls run serially inline (how a serve
/// worker runs library code), then restores the thread's previous mode.
class ScopedWorkerThread {
 public:
  ScopedWorkerThread();
  ~ScopedWorkerThread();
  ScopedWorkerThread(const ScopedWorkerThread&) = delete;
  ScopedWorkerThread& operator=(const ScopedWorkerThread&) = delete;

 private:
  bool was_worker_ = false;
};

/// Convenience wrappers over the singleton pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn, std::size_t grain = 1);
void parallel_for_chunked(std::size_t begin, std::size_t end,
                          const std::function<void(std::size_t, std::size_t)>& fn,
                          std::size_t min_chunk = 1);
std::size_t num_threads();

}  // namespace maps::math
