// MicroBatcher: dynamic request coalescing for surrogate inference.
//
// Serving traffic arrives one request at a time, but the NN substrate is at
// its best on batches (one stacked GEMM forward, one dispatch). The
// batcher queues encoded single-sample inputs and flushes a batch when
// either trigger fires:
//
//   max_batch   the queue holds a full batch — flush immediately;
//   max_delay   the oldest queued request has waited its deadline out —
//               flush whatever is there (bounds added latency at light load).
//
// A flush stacks the inputs into one (N, C, H, W) tensor and submits a
// single job to the TaskQueue, where a worker runs one const infer() per
// consecutive same-model run of jobs (jobs pin the model snapshot they were
// encoded for, so a registry hot-swap splits a batch at the swap point
// instead of silently retargeting queued inputs) and completes every
// request's callback with its output row. Multiple flushed batches run
// concurrently on different workers — Module::infer is const, so they share
// one model with no lock. max_batch = 1 degenerates to per-request dispatch
// (the "unbatched" serving mode the benchmarks compare against).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

#include "nn/infer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/task_queue.hpp"
#include "serve/registry.hpp"

namespace maps::serve {

/// One queued request: the encoded input row, the model bundle the caller
/// encoded it for (inputs are standardizer-specific, so a job must run on
/// the exact model snapshot taken at submit time — a hot-swap mid-queue
/// must not retarget it), and the completion callback. Exactly one of
/// (output, error) is delivered, from a TaskQueue worker.
struct BatchJob {
  nn::Tensor input;  // (1, C, H, W)
  std::shared_ptr<const ServedModel> model;
  std::function<void(nn::Tensor output, std::exception_ptr error)> done;
  /// Request trace (null = untraced): the batcher records the queue-wait
  /// span and the (shared, per-run) surrogate forward span into it.
  obs::TracePtr trace;
  /// Steady-clock submit time, stamped by MicroBatcher::submit when
  /// instrumentation is live (0 otherwise).
  double enqueued_ms = 0.0;
};

struct BatcherOptions {
  int max_batch = 32;
  double max_delay_ms = 2.0;
  /// Queue running the batched forwards; nullptr = runtime::TaskQueue::shared().
  runtime::TaskQueue* queue = nullptr;
};

struct BatcherStats {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t full_flushes = 0;      // triggered by max_batch
  std::uint64_t deadline_flushes = 0;  // triggered by max_delay
  std::uint64_t max_batch_seen = 0;

  double avg_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) / static_cast<double>(batches);
  }
};

class MicroBatcher {
 public:
  explicit MicroBatcher(BatcherOptions options = {});
  /// Drains the queue (pending jobs still run) and waits for in-flight
  /// batches to complete their callbacks.
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  void submit(BatchJob job);

  BatcherStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Pending {
    BatchJob job;
    Clock::time_point enqueued;
  };

  void flusher_loop();
  void dispatch(std::vector<BatchJob> batch);
  void run_batch(std::vector<BatchJob>& batch) const;

  BatcherOptions options_;
  runtime::TaskQueue* queue_;
  obs::Histogram* hist_queue_ms_ = nullptr;
  obs::Histogram* hist_forward_ms_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;       // wakes the flusher
  std::condition_variable cv_idle_;  // wakes the destructor drain
  std::deque<Pending> pending_;
  std::size_t in_flight_ = 0;  // dispatched batches not yet completed
  bool stop_ = false;
  BatcherStats stats_;
  std::thread flusher_;
};

}  // namespace maps::serve
