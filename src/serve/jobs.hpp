// Long-running jobs of the serving tier: the "/v1/jobs" API.
//
// The serve front ends answer single-pattern forward queries in
// milliseconds; the paper's headline workload — adjoint inverse design and
// its batched evaluation sweeps — runs for minutes. JobManager turns that
// workload into served traffic: a submitted job spec (JSON, same documents
// the CLI configs use plus a "type" selector) becomes a queued job that
// executes one optimization step per TaskQueue task, so long jobs interleave
// fairly with predict traffic instead of pinning a worker.
//
// Job types:
//
//   {"type": "invdes", ...InvDesConfig keys...}
//       adjoint inverse design via core/invdes: one InvDesStepper iteration
//       per step, progress = (step, objective, solver-work counters).
//   {"type": "sweep", ...SweepJobConfig keys...}
//       batched evaluation of a fixed design: lithography robustness
//       corners ("sweep": "corners") or a multi-wavelength S-parameter
//       matrix ("sweep": "sparams"); one corner / wavelength per step.
//
// Lifecycle: queued -> running -> done | failed, with cooperative
// cancellation checked between steps (queued -> cancelled immediately;
// running -> cancelling -> cancelled at the next step boundary).
//
// Crash safety: every job keeps a manifest (`<id>.json`) and a
// line-per-step journal (`<id>.journal`) under JobsOptions::journal_dir,
// written through runtime/durable.hpp (fault point `jobs.journal`; what a
// write survives is in src/runtime/README.md). resume_journaled() rebuilds
// the exact optimizer state from them — theta, Adam moments, step counter
// (which doubles as the RNG stream position) — so a resumed run lands on
// the same final objective as an uninterrupted one. The step path has the
// `jobs.step` fault point (see runtime/fault.hpp).
//
// Reliability mapping (PR 7 machinery): submits beyond max_queued are shed
// with OverloadedError (HTTP 429 + Retry-After), drain() parks running jobs
// at the next step boundary after journaling them, and stats() lands as the
// "jobs" block of the ServeStats wire JSON.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "runtime/task_queue.hpp"

namespace maps::serve {

enum class JobState { Queued, Running, Cancelling, Done, Failed, Cancelled };

const char* job_state_name(JobState state);

/// Unknown job id ("not_found" on the wire, HTTP 404).
class JobNotFound : public MapsError {
 public:
  using MapsError::MapsError;
};

/// Result requested before the job reached a terminal state ("not_ready"
/// on the wire, HTTP 409).
class JobNotReady : public MapsError {
 public:
  using MapsError::MapsError;
};

struct JobsOptions {
  /// Jobs stepping concurrently. Each runs one step per TaskQueue task, so
  /// even max_running = 1 never starves predict traffic.
  int max_running = 1;
  /// Queued (not yet running) jobs beyond which submits are shed.
  int max_queued = 8;
  /// Manifest + journal directory (created if missing). Empty disables
  /// persistence: jobs run in-memory only and do not survive a restart.
  std::string journal_dir;
};

/// The job manager's monotone counters, one atomic add per event. Each name
/// in kJobsCounterNames is the counter's key in the "jobs" block of
/// /v1/stats; its /v1/metrics family is maps_jobs_<name>_total.
enum class JobsCounter : std::size_t {
  Submitted,
  Completed,       // reached Done
  Failed,
  Cancelled,
  Resumed,         // re-adopted from journals at startup
  Shed,            // submits rejected by admission control
  Steps,           // optimization / sweep steps executed
  JournalRetries,  // transient journal-I/O retries
  Count
};

inline constexpr const char* kJobsCounterNames[] = {
    "submitted", "completed", "failed", "cancelled",
    "resumed",   "shed",      "steps",  "journal_retries"};
static_assert(std::size(kJobsCounterNames) ==
              static_cast<std::size_t>(JobsCounter::Count));

/// The counters (read by JobsCounter) plus the current queue occupancy; the
/// "jobs" block of the ServeStats wire JSON.
struct JobsStatsSnapshot : obs::Counts<JobsCounter> {
  int running = 0;
  int queued = 0;
};

class JobManager {
 public:
  JobManager(runtime::TaskQueue& queue, JobsOptions options = {},
             std::ostream* log = nullptr);
  /// Stops scheduling, journals running jobs at their next step boundary
  /// and waits for in-flight step tasks to retire.
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Validate a job spec and enqueue it; returns the new job id. Throws
  /// MapsError on a malformed spec ("bad_request" on the wire) and
  /// OverloadedError when the queue is full or the manager is draining.
  std::string submit(const io::JsonValue& spec);

  /// Status + progress document of one job; throws JobNotFound.
  io::JsonValue status(const std::string& id) const;

  /// {"jobs": [status...]}, submission-ordered.
  io::JsonValue list() const;

  /// Terminal document of a finished job: {"ok": true, "result": ...} for
  /// Done, {"ok": false, "error": {code "job_failed" | "job_cancelled"}}
  /// for Failed / Cancelled. Throws JobNotFound / JobNotReady.
  io::JsonValue result(const std::string& id) const;

  /// Request cancellation; returns the post-transition status document.
  /// Queued jobs cancel immediately, running jobs at the next step
  /// boundary. Idempotent on terminal jobs. Throws JobNotFound.
  io::JsonValue cancel(const std::string& id);

  /// Re-adopt journaled jobs from journal_dir (call once, before serving):
  /// terminal jobs become queryable records, interrupted ones re-queue from
  /// their last fully flushed checkpoint. Returns the number re-queued.
  int resume_journaled();

  /// Stop scheduling: queued jobs stay queued, running jobs park (state
  /// back to Queued, checkpoint journaled) at their next step boundary.
  /// Returns immediately; the destructor waits for in-flight steps.
  void drain();

  JobsStatsSnapshot stats() const;

  const JobsOptions& options() const { return options_; }

 private:
  struct Job;

  std::string manifest_path(const std::string& id) const;
  std::string journal_path(const std::string& id) const;
  io::JsonValue manifest_json_locked(const Job& job) const;
  io::JsonValue status_locked(const Job& job) const;
  /// Run one durable write (runtime/durable.hpp), adding its retries to
  /// JobsCounter::JournalRetries. Past the retries it warns and returns
  /// false: the job keeps running in memory, so durability degrades, the
  /// work does not.
  bool persist(const char* what, const std::function<void(int*)>& write);
  /// False once the retries are spent (the older manifest stays in place).
  bool save_manifest(const std::string& id, const io::JsonValue& doc);
  void append_journal(const std::string& id, const io::JsonValue& line);
  /// Fold the journal into the manifest and truncate it (terminal states,
  /// parking, resume). A failed manifest save keeps the journal.
  void compact(const std::string& id, const io::JsonValue& manifest_doc);
  void warn(const std::string& message);

  void schedule_locked();
  void post_step_locked(const std::shared_ptr<Job>& job);
  void run_step(const std::shared_ptr<Job>& job);
  /// Terminal transition of a job holding a running slot: releases the
  /// slot, persists (manifest + journal compaction) and schedules
  /// successors. Caller holds mu_.
  void finish_locked(const std::shared_ptr<Job>& job, JobState state,
                     const std::string& error, io::JsonValue result_doc);
  /// Drain parking: persist the checkpoint, return the job to Queued.
  /// Caller holds mu_.
  void park_locked(const std::shared_ptr<Job>& job);

  runtime::TaskQueue& queue_;
  JobsOptions options_;
  std::ostream* log_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;  // id-sorted == seq order
  std::deque<std::shared_ptr<Job>> pending_;
  std::uint64_t seq_ = 1;
  int running_ = 0;
  bool draining_ = false;

  std::atomic<int> inflight_{0};  // queued or executing step tasks
  obs::CounterTable<JobsCounter> counters_;
};

}  // namespace maps::serve
