#include "serve/jobs.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/invdes/engine.hpp"
#include "core/invdes/init.hpp"
#include "core/invdes/robust.hpp"
#include "devices/builders.hpp"
#include "devices/sparams.hpp"
#include "io/config.hpp"
#include "param/litho.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/deadline.hpp"
#include "runtime/durable.hpp"
#include "runtime/fault.hpp"
#include "serve/service.hpp"

namespace maps::serve {

namespace {

io::JsonValue to_json_array(const std::vector<double>& xs) {
  io::JsonArray a(xs.begin(), xs.end());
  return io::JsonValue(std::move(a));
}

std::vector<double> from_json_array(const io::JsonValue& v) {
  std::vector<double> xs;
  xs.reserve(v.size());
  for (const auto& x : v.as_array()) xs.push_back(x.as_number());
  return xs;
}

io::JsonValue stepper_state_to_json(const invdes::StepperState& s) {
  io::JsonValue v;
  v["step"] = s.step;
  v["fom"] = s.fom;
  v["total_factorizations"] = s.total_factorizations;
  v["total_solves"] = s.total_solves;
  v["theta"] = to_json_array(s.theta);
  v["adam_m"] = to_json_array(s.adam.m);
  v["adam_v"] = to_json_array(s.adam.v);
  v["adam_t"] = s.adam.t;
  return v;
}

invdes::StepperState stepper_state_from_json(const io::JsonValue& v) {
  invdes::StepperState s;
  s.step = static_cast<int>(v.at("step").as_int());
  s.fom = v.at("fom").as_number();
  s.total_factorizations = static_cast<int>(v.at("total_factorizations").as_int());
  s.total_solves = static_cast<int>(v.at("total_solves").as_int());
  s.theta = from_json_array(v.at("theta"));
  s.adam.m = from_json_array(v.at("adam_m"));
  s.adam.v = from_json_array(v.at("adam_v"));
  s.adam.t = static_cast<int>(v.at("adam_t").as_int());
  return s;
}

/// One executing job behind the manager: a sequence of steps with a
/// serializable checkpoint between any two. Engines live on TaskQueue
/// workers only — construction (device build, normalization solves) and
/// step() are the expensive parts and run off the manager lock.
class JobEngine {
 public:
  virtual ~JobEngine() = default;
  virtual int step_index() const = 0;
  virtual double objective() const = 0;
  virtual int factorizations() const = 0;
  virtual int solves() const = 0;
  /// True once every step has run (also right after construction when the
  /// resume checkpoint was taken past the last step).
  virtual bool finished() const = 0;
  /// One unit of work; returns finished().
  virtual bool step() = 0;
  /// Resume snapshot covering everything step() mutates.
  virtual io::JsonValue checkpoint() const = 0;
  /// Per-step history record (null = this job type keeps no history).
  virtual io::JsonValue history_entry() const = 0;
  /// Terminal document; call only when finished().
  virtual io::JsonValue result() = 0;
};

/// Adjoint inverse design via core/invdes: one InvDesStepper iteration per
/// step. The checkpoint is the full StepperState (theta + Adam moments +
/// step counter, which doubles as the RNG stream position), so a resumed
/// job continues on the exact trajectory of an uninterrupted one.
class InvdesJobEngine final : public JobEngine {
 public:
  InvdesJobEngine(io::InvDesConfig config, const io::JsonValue* checkpoint)
      : config_(std::move(config)) {
    devices::BuildOptions build;
    build.fidelity = config_.fidelity;
    device_ = devices::make_device(config_.device, build);
    io::apply_solver_settings(device_, config_.solver);
    pipeline_.emplace(
        devices::make_default_pipeline(device_, config_.device, config_.pipeline));
    provider_.emplace(device_);
    if (checkpoint != nullptr) {
      invdes::StepperState state = stepper_state_from_json(*checkpoint);
      last_.iteration = state.step - 1;
      last_.fom = state.fom;
      if (const io::JsonValue* ts = checkpoint->find("transmissions")) {
        last_.transmissions = from_json_array(*ts);
      }
      stepper_.emplace(*pipeline_, config_.options, std::move(state));
    } else {
      stepper_.emplace(*pipeline_, config_.options,
                       invdes::make_initial_theta(
                           device_, invdes::init_kind_from_name(config_.init), config_.seed));
    }
  }

  int step_index() const override { return stepper_->state().step; }
  double objective() const override { return stepper_->state().fom; }
  int factorizations() const override {
    return stepper_->state().total_factorizations;
  }
  int solves() const override { return stepper_->state().total_solves; }
  bool finished() const override { return stepper_->done(); }

  bool step() override {
    last_ = stepper_->step(*provider_);
    return stepper_->done();
  }

  io::JsonValue checkpoint() const override {
    io::JsonValue v = stepper_state_to_json(stepper_->state());
    v["transmissions"] = to_json_array(last_.transmissions);
    return v;
  }

  io::JsonValue history_entry() const override {
    io::JsonValue v;
    v["iteration"] = last_.iteration;
    v["fom"] = last_.fom;
    v["beta"] = last_.beta;
    return v;
  }

  io::JsonValue result() override {
    const invdes::InvDesResult res = stepper_->finalize();
    io::JsonValue v;
    v["task"] = "invdes";
    v["device"] = devices::device_name(config_.device);
    v["fom"] = res.fom;
    v["iterations"] = stepper_->state().step;
    v["factorizations"] = res.total_factorizations;
    v["solves"] = res.total_solves;
    v["final_transmissions"] = to_json_array(last_.transmissions);
    v["theta"] = to_json_array(res.theta);
    return v;
  }

 private:
  io::InvDesConfig config_;
  devices::DeviceProblem device_;
  std::optional<param::DesignPipeline> pipeline_;
  std::optional<invdes::NumericalProvider> provider_;
  std::optional<invdes::InvDesStepper> stepper_;
  invdes::IterationRecord last_;
};

/// Batched evaluation of one fixed design: a lithography robustness corner
/// or one wavelength of an S-parameter sweep per step. The checkpoint is
/// the completed item count plus the accumulated per-item results, so a
/// resumed sweep skips everything already solved.
class SweepJobEngine final : public JobEngine {
 public:
  SweepJobEngine(io::SweepJobConfig config, const io::JsonValue* checkpoint)
      : config_(std::move(config)) {
    devices::BuildOptions build;
    build.fidelity = config_.fidelity;
    device_ = devices::make_device(config_.device, build);
    io::apply_solver_settings(device_, config_.solver);
    pipeline_.emplace(devices::make_default_pipeline(device_, config_.device));
    if (config_.theta.empty()) {
      theta_ = invdes::make_initial_theta(
          device_, invdes::init_kind_from_name(config_.init), config_.seed);
    } else {
      maps::require(
          static_cast<int>(config_.theta.size()) == pipeline_->num_params(),
          "sweep: theta has " + std::to_string(config_.theta.size()) +
              " values, the design region expects " +
              std::to_string(pipeline_->num_params()));
      theta_ = config_.theta;
    }
    total_ = config_.sweep == "corners"
                 ? static_cast<int>(param::LithoModel::corners().size())
                 : static_cast<int>(config_.wavelengths.size());
    if (checkpoint != nullptr) {
      next_ = static_cast<int>(checkpoint->at("item").as_int());
      results_ = checkpoint->at("results").as_array();
      maps::require(next_ == static_cast<int>(results_.size()) && next_ <= total_,
                    "sweep: corrupt resume checkpoint");
      objective_ = checkpoint->at("objective").as_number();
      factorizations_ = static_cast<int>(checkpoint->at("factorizations").as_int());
      solves_ = static_cast<int>(checkpoint->at("solves").as_int());
    }
  }

  int step_index() const override { return next_; }
  double objective() const override { return objective_; }
  int factorizations() const override { return factorizations_; }
  int solves() const override { return solves_; }
  bool finished() const override { return next_ >= total_; }

  bool step() override {
    if (config_.sweep == "corners") {
      run_corner();
    } else {
      run_wavelength();
    }
    ++next_;
    return finished();
  }

  io::JsonValue checkpoint() const override {
    io::JsonValue v;
    v["item"] = next_;
    v["results"] = io::JsonValue(results_);
    v["objective"] = objective_;
    v["factorizations"] = factorizations_;
    v["solves"] = solves_;
    return v;
  }

  io::JsonValue history_entry() const override { return io::JsonValue(); }

  io::JsonValue result() override {
    io::JsonValue v;
    v["task"] = "sweep";
    v["sweep"] = config_.sweep;
    v["device"] = devices::device_name(config_.device);
    v["items"] = io::JsonValue(results_);
    return v;
  }

 private:
  void run_corner() {
    const param::LithoCorner corner = param::LithoModel::corners()[
        static_cast<std::size_t>(next_)];
    param::DesignPipeline pipe = invdes::make_corner_pipeline(
        device_, config_.device, param::LithoSpec{}, corner);
    const devices::DeviceEval eval = device_.evaluate(pipe.eps_of(theta_));

    io::JsonValue item;
    item["corner"] = param::LithoModel::corner_name(corner);
    item["fom"] = eval.fom;
    io::JsonArray ts;
    for (const auto& exc : eval.per_excitation) {
      for (const double t : exc.transmissions) ts.push_back(t);
    }
    item["transmissions"] = io::JsonValue(std::move(ts));
    objective_ = eval.fom;
    factorizations_ += eval.factorizations;
    solves_ += eval.solves;
    results_.push_back(std::move(item));
  }

  void run_wavelength() {
    // Fresh device at this wavelength (sources and normalization are
    // frequency-dependent), same theta.
    const double lambda = config_.wavelengths[static_cast<std::size_t>(next_)];
    devices::BuildOptions build;
    build.fidelity = config_.fidelity;
    build.lambda = lambda;
    devices::DeviceProblem dev = devices::make_device(config_.device, build);
    io::apply_solver_settings(dev, config_.solver);
    param::DesignPipeline pipe =
        devices::make_default_pipeline(dev, config_.device);
    const devices::SParamMatrix sp = devices::compute_sparams(dev, pipe.eps_of(theta_));

    io::JsonValue item;
    item["wavelength"] = lambda;
    item["contrast"] = sp.contrast();
    io::JsonArray entries;
    for (const auto& e : sp.entries) {
      io::JsonValue ent;
      ent["excitation"] = e.excitation;
      ent["monitor"] = e.monitor;
      ent["re"] = e.s.real();
      ent["im"] = e.s.imag();
      ent["power"] = e.power;
      ent["goal"] = e.goal == fdfd::Goal::Maximize ? "maximize" : "minimize";
      entries.push_back(std::move(ent));
    }
    item["entries"] = io::JsonValue(std::move(entries));
    objective_ = sp.contrast();
    // compute_sparams runs one un-cached Simulation per excitation.
    factorizations_ += static_cast<int>(dev.excitations.size());
    solves_ += static_cast<int>(dev.excitations.size());
    results_.push_back(std::move(item));
  }

  io::SweepJobConfig config_;
  devices::DeviceProblem device_;
  std::optional<param::DesignPipeline> pipeline_;
  std::vector<double> theta_;
  int total_ = 0;
  int next_ = 0;
  double objective_ = 0.0;
  int factorizations_ = 0;
  int solves_ = 0;
  io::JsonArray results_;
};

struct SpecInfo {
  std::string type;
  int total_steps = 0;
};

/// Submit-time validation: parse the config (cheap — no device build) so a
/// malformed spec answers 400 at submit instead of failing the job later.
SpecInfo inspect_spec(const io::JsonValue& spec) {
  const io::JsonValue* t = spec.find("type");
  if (t == nullptr || !t->is_string()) {
    throw MapsError("jobs: spec needs a string \"type\" (invdes | sweep)");
  }
  io::JsonValue body = spec;
  body.as_object().erase("type");
  SpecInfo info;
  info.type = t->as_string();
  if (info.type == "invdes") {
    for (const char* k : {"density_out", "history_out", "report"}) {
      if (body.has(k)) {
        throw MapsError(std::string("jobs: invdes job rejects \"") + k +
                        "\" — fetch the result from /v1/jobs/{id}/result instead");
      }
    }
    info.total_steps = io::InvDesConfig::from_json(body).options.iterations;
  } else if (info.type == "sweep") {
    const io::SweepJobConfig cfg = io::SweepJobConfig::from_json(body);
    info.total_steps = cfg.sweep == "corners"
                           ? static_cast<int>(param::LithoModel::corners().size())
                           : static_cast<int>(cfg.wavelengths.size());
  } else {
    throw MapsError("jobs: unknown job type '" + info.type +
                    "' (expected invdes | sweep)");
  }
  return info;
}

std::unique_ptr<JobEngine> make_engine(const std::string& type,
                                       const io::JsonValue& spec,
                                       const io::JsonValue* checkpoint) {
  io::JsonValue body = spec;
  body.as_object().erase("type");
  if (type == "invdes") {
    return std::make_unique<InvdesJobEngine>(io::InvDesConfig::from_json(body),
                                             checkpoint);
  }
  return std::make_unique<SweepJobEngine>(io::SweepJobConfig::from_json(body),
                                          checkpoint);
}

JobState job_state_from_name(const std::string& name) {
  if (name == "queued") return JobState::Queued;
  if (name == "running") return JobState::Running;
  if (name == "cancelling") return JobState::Cancelling;
  if (name == "done") return JobState::Done;
  if (name == "failed") return JobState::Failed;
  if (name == "cancelled") return JobState::Cancelled;
  throw MapsError("jobs: unknown state '" + name + "'");
}

/// States as persisted: a crash while Running resumes as Queued (the
/// journaled checkpoint re-queues), one while Cancelling honors the cancel.
JobState persisted_state(JobState state) {
  if (state == JobState::Running) return JobState::Queued;
  if (state == JobState::Cancelling) return JobState::Cancelled;
  return state;
}

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Cancelling: return "cancelling";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  return "unknown";
}

struct JobManager::Job {
  std::string id;
  std::uint64_t seq = 0;
  std::string type;
  io::JsonValue spec;
  JobState state = JobState::Queued;
  bool cancel_requested = false;
  bool resumed = false;
  int step = 0;
  int total_steps = 0;
  double objective = 0.0;
  int factorizations = 0;
  int solves = 0;
  io::JsonValue checkpoint;   // null until the first step commits
  io::JsonArray history;
  io::JsonValue result_doc;   // null until Done
  std::string error;
  /// Built lazily on a worker; only the job's single in-flight step task
  /// touches it (steps are chained, never concurrent per job).
  std::unique_ptr<JobEngine> engine;
};

JobManager::JobManager(runtime::TaskQueue& queue, JobsOptions options,
                       std::ostream* log)
    : queue_(queue), options_(std::move(options)), log_(log) {
  if (!options_.journal_dir.empty()) {
    if (::mkdir(options_.journal_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      throw MapsError("jobs: cannot create journal dir " + options_.journal_dir);
    }
  }
}

JobManager::~JobManager() {
  drain();
  // Parked / finished jobs retire their step tasks quickly; an FDFD step in
  // flight finishes first. The TaskQueue outlives us (callers own it), so
  // waiting here is what keeps step lambdas from outliving the manager.
  while (inflight_.load() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::string JobManager::manifest_path(const std::string& id) const {
  return options_.journal_dir + "/" + id + ".json";
}

std::string JobManager::journal_path(const std::string& id) const {
  return options_.journal_dir + "/" + id + ".journal";
}

void JobManager::warn(const std::string& message) {
  obs::log_to(log_, obs::LogLevel::Warn, "jobs", "warning: " + message);
}

io::JsonValue JobManager::manifest_json_locked(const Job& job) const {
  io::JsonValue v;
  v["id"] = job.id;
  v["seq"] = static_cast<double>(job.seq);
  v["type"] = job.type;
  v["state"] = job_state_name(persisted_state(job.state));
  v["spec"] = job.spec;
  v["step"] = job.step;
  v["total_steps"] = job.total_steps;
  v["objective"] = job.objective;
  v["factorizations"] = job.factorizations;
  v["solves"] = job.solves;
  v["checkpoint"] = job.checkpoint;
  v["history"] = io::JsonValue(job.history);
  v["result"] = job.result_doc;
  if (!job.error.empty()) v["error"] = job.error;
  return v;
}

io::JsonValue JobManager::status_locked(const Job& job) const {
  io::JsonValue v;
  v["id"] = job.id;
  v["type"] = job.type;
  v["state"] = job_state_name(job.state);
  v["step"] = job.step;
  v["total_steps"] = job.total_steps;
  v["objective"] = job.objective;
  v["factorizations"] = job.factorizations;
  v["solves"] = job.solves;
  if (job.resumed) v["resumed"] = true;
  if (!job.error.empty()) v["error"] = job.error;
  return v;
}

bool JobManager::persist(const char* what, const std::function<void(int*)>& write) {
  if (options_.journal_dir.empty()) return true;
  int retries = 0;
  bool ok = true;
  try {
    write(&retries);
  } catch (const MapsError& e) {
    warn(std::string(what) + " failed: " + e.what());
    ok = false;
  }
  counters_.add(JobsCounter::JournalRetries, static_cast<std::uint64_t>(retries));
  return ok;
}

bool JobManager::save_manifest(const std::string& id, const io::JsonValue& doc) {
  return persist("manifest save", [&](int* retries) {
    runtime::durable::atomic_write(manifest_path(id), doc.dump(2) + "\n", "jobs.journal",
                                   retries);
  });
}

void JobManager::append_journal(const std::string& id, const io::JsonValue& line) {
  persist("journal append", [&](int* retries) {
    runtime::durable::LineLog(journal_path(id)).append(line.dump(), "jobs.journal", retries);
  });
}

void JobManager::compact(const std::string& id, const io::JsonValue& manifest_doc) {
  // Manifest first (atomic rename makes it the full record), journal
  // truncation second; a crash in between is healed by the resume-side
  // dedup on step numbers. If the manifest could not be saved, the journal
  // still holds the steps the older manifest lacks: keep it.
  if (!save_manifest(id, manifest_doc)) return;
  persist("journal truncate", [&](int* retries) {
    runtime::durable::LineLog(journal_path(id)).truncate("jobs.journal", retries);
  });
}

std::string JobManager::submit(const io::JsonValue& spec) {
  const SpecInfo info = inspect_spec(spec);
  std::lock_guard<std::mutex> lk(mu_);
  if (draining_) {
    counters_.add(JobsCounter::Shed);
    throw OverloadedError("jobs: server is draining", 1000.0);
  }
  // max_queued bounds jobs waiting *beyond* the running slots: a submit that
  // would start immediately is always admitted.
  const bool starts_now = running_ < options_.max_running;
  if (!starts_now &&
      static_cast<int>(pending_.size()) >= options_.max_queued) {
    counters_.add(JobsCounter::Shed);
    throw OverloadedError(
        "jobs: queue full (" + std::to_string(pending_.size()) + " queued)",
        1000.0);
  }
  auto job = std::make_shared<Job>();
  job->seq = seq_++;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "job-%06llu",
                static_cast<unsigned long long>(job->seq));
  job->id = buf;
  job->type = info.type;
  job->spec = spec;
  job->total_steps = info.total_steps;
  jobs_[job->id] = job;
  pending_.push_back(job);
  counters_.add(JobsCounter::Submitted);
  save_manifest(job->id, manifest_json_locked(*job));
  schedule_locked();
  return job->id;
}

io::JsonValue JobManager::status(const std::string& id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw JobNotFound("jobs: no such job '" + id + "'");
  return status_locked(*it->second);
}

io::JsonValue JobManager::list() const {
  std::lock_guard<std::mutex> lk(mu_);
  io::JsonArray all;
  for (const auto& [id, job] : jobs_) all.push_back(status_locked(*job));
  io::JsonValue v;
  v["jobs"] = io::JsonValue(std::move(all));
  return v;
}

io::JsonValue JobManager::result(const std::string& id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw JobNotFound("jobs: no such job '" + id + "'");
  const Job& job = *it->second;
  io::JsonValue v;
  v["id"] = job.id;
  v["state"] = job_state_name(job.state);
  switch (job.state) {
    case JobState::Done:
      v["ok"] = true;
      v["result"] = job.result_doc;
      return v;
    case JobState::Failed: {
      io::JsonValue err;
      err["code"] = "job_failed";
      err["message"] = job.error;
      v["ok"] = false;
      v["error"] = std::move(err);
      return v;
    }
    case JobState::Cancelled: {
      io::JsonValue err;
      err["code"] = "job_cancelled";
      err["message"] = "job was cancelled";
      v["ok"] = false;
      v["error"] = std::move(err);
      return v;
    }
    default:
      throw JobNotReady("jobs: job '" + id + "' is " +
                        job_state_name(job.state) +
                        " — poll its status until it reaches a terminal state");
  }
}

io::JsonValue JobManager::cancel(const std::string& id) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw JobNotFound("jobs: no such job '" + id + "'");
  Job& job = *it->second;
  switch (job.state) {
    case JobState::Queued: {
      for (auto p = pending_.begin(); p != pending_.end(); ++p) {
        if ((*p)->id == id) {
          pending_.erase(p);
          break;
        }
      }
      job.state = JobState::Cancelled;
      job.cancel_requested = true;
      counters_.add(JobsCounter::Cancelled);
      compact(job.id, manifest_json_locked(job));
      break;
    }
    case JobState::Running:
      // Cooperative: the step task observes the flag at the next boundary.
      job.cancel_requested = true;
      job.state = JobState::Cancelling;
      break;
    case JobState::Cancelling:
    case JobState::Done:
    case JobState::Failed:
    case JobState::Cancelled:
      break;  // idempotent
  }
  return status_locked(job);
}

void JobManager::drain() {
  std::lock_guard<std::mutex> lk(mu_);
  draining_ = true;
}

JobsStatsSnapshot JobManager::stats() const {
  JobsStatsSnapshot s;
  counters_.read(s);
  std::lock_guard<std::mutex> lk(mu_);
  s.running = running_;
  s.queued = static_cast<int>(pending_.size());
  return s;
}

void JobManager::schedule_locked() {
  while (!draining_ && running_ < options_.max_running && !pending_.empty()) {
    std::shared_ptr<Job> job = pending_.front();
    pending_.pop_front();
    job->state = JobState::Running;
    ++running_;
    post_step_locked(job);
  }
}

void JobManager::post_step_locked(const std::shared_ptr<Job>& job) {
  inflight_.fetch_add(1);
  queue_.submit([this, job]() -> int {
    run_step(job);  // handles its own failures; must not throw
    inflight_.fetch_sub(1);
    return 0;
  });
}

void JobManager::finish_locked(const std::shared_ptr<Job>& job, JobState state,
                               const std::string& error,
                               io::JsonValue result_doc) {
  job->state = state;
  job->error = error;
  job->result_doc = std::move(result_doc);
  job->engine.reset();
  --running_;
  if (state == JobState::Done) counters_.add(JobsCounter::Completed);
  if (state == JobState::Failed) counters_.add(JobsCounter::Failed);
  if (state == JobState::Cancelled) counters_.add(JobsCounter::Cancelled);
  compact(job->id, manifest_json_locked(*job));
  schedule_locked();
}

void JobManager::park_locked(const std::shared_ptr<Job>& job) {
  job->state = JobState::Queued;
  job->engine.reset();
  --running_;
  pending_.push_front(job);
  compact(job->id, manifest_json_locked(*job));
}

void JobManager::run_step(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (job->cancel_requested) {
      finish_locked(job, JobState::Cancelled, "", io::JsonValue());
      return;
    }
    if (draining_) {
      park_locked(job);
      return;
    }
  }

  if (!job->engine) {
    try {
      job->engine = make_engine(
          job->type, job->spec,
          job->checkpoint.is_object() ? &job->checkpoint : nullptr);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lk(mu_);
      finish_locked(job, JobState::Failed, e.what(), io::JsonValue());
      return;
    }
  }

  // finished() right after construction covers a crash that landed between
  // the last journaled step and the result: resume skips straight to it.
  bool done = job->engine->finished();
  if (!done) {
    static obs::Histogram& step_hist =
        obs::registry().histogram("jobs.step_ms");
    try {
      obs::ScopedSpan span("jobs.step", obs::current_trace(), &step_hist);
      if (runtime::fault::point("jobs.step")) {
        throw MapsError("jobs: injected step failure");
      }
      done = job->engine->step();
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lk(mu_);
      finish_locked(job, JobState::Failed, e.what(), io::JsonValue());
      return;
    }
    counters_.add(JobsCounter::Steps);

    std::lock_guard<std::mutex> lk(mu_);
    job->step = job->engine->step_index();
    job->objective = job->engine->objective();
    job->factorizations = job->engine->factorizations();
    job->solves = job->engine->solves();
    job->checkpoint = job->engine->checkpoint();
    const io::JsonValue h = job->engine->history_entry();
    if (!h.is_null()) job->history.push_back(h);
    io::JsonValue line;
    line["step"] = job->step;
    line["objective"] = job->objective;
    line["factorizations"] = job->factorizations;
    line["solves"] = job->solves;
    line["checkpoint"] = job->checkpoint;
    line["history"] = h;
    append_journal(job->id, line);
    if (!done) {
      if (job->cancel_requested) {
        finish_locked(job, JobState::Cancelled, "", io::JsonValue());
      } else if (draining_) {
        park_locked(job);
      } else {
        post_step_locked(job);
      }
      return;
    }
  }

  io::JsonValue result;
  try {
    result = job->engine->result();
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lk(mu_);
    finish_locked(job, JobState::Failed, e.what(), io::JsonValue());
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  finish_locked(job, JobState::Done, "", std::move(result));
}

int JobManager::resume_journaled() {
  if (options_.journal_dir.empty()) return 0;
  DIR* dir = ::opendir(options_.journal_dir.c_str());
  if (dir == nullptr) return 0;
  std::vector<std::string> ids;
  while (dirent* e = ::readdir(dir)) {
    const std::string name = e->d_name;
    if (name.rfind("job-", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      ids.push_back(name.substr(0, name.size() - 5));
    }
  }
  ::closedir(dir);
  std::sort(ids.begin(), ids.end());  // id order == submission order

  int requeued = 0;
  std::lock_guard<std::mutex> lk(mu_);
  for (const std::string& id : ids) {
    auto job = std::make_shared<Job>();
    try {
      const io::JsonValue m = io::json_load(manifest_path(id));
      job->id = m.at("id").as_string();
      job->seq = static_cast<std::uint64_t>(m.at("seq").as_int());
      job->type = m.at("type").as_string();
      job->spec = m.at("spec");
      job->state = job_state_from_name(m.at("state").as_string());
      job->step = static_cast<int>(m.at("step").as_int());
      job->total_steps = static_cast<int>(m.at("total_steps").as_int());
      job->objective = m.at("objective").as_number();
      job->factorizations = static_cast<int>(m.at("factorizations").as_int());
      job->solves = static_cast<int>(m.at("solves").as_int());
      job->checkpoint = m.at("checkpoint");
      job->history = m.at("history").as_array();
      job->result_doc = m.at("result");
      if (const io::JsonValue* err = m.find("error")) job->error = err->as_string();
    } catch (const std::exception& e) {
      warn("skipping unreadable manifest for " + id + ": " + e.what());
      continue;
    }
    if (job->id != id || jobs_.count(job->id) > 0) {
      warn("skipping inconsistent manifest for " + id);
      continue;
    }

    // Adopt journal lines newer than the manifest, up to the first torn
    // one (a kill mid-append): the last fully flushed step wins. Every field
    // is read before any is adopted, so a line that lacks one ends replay
    // the way a torn line does.
    runtime::durable::replay(journal_path(id), [&](const std::string& text) {
      const io::JsonValue line = io::json_parse(text);
      const int step = static_cast<int>(line.at("step").as_int());
      if (step <= job->step) return;  // already compacted into the manifest
      const double objective = line.at("objective").as_number();
      const int factorizations = static_cast<int>(line.at("factorizations").as_int());
      const int solves = static_cast<int>(line.at("solves").as_int());
      const io::JsonValue& checkpoint = line.at("checkpoint");
      const io::JsonValue& h = line.at("history");
      job->step = step;
      job->objective = objective;
      job->factorizations = factorizations;
      job->solves = solves;
      job->checkpoint = checkpoint;
      if (!h.is_null()) job->history.push_back(h);
    });

    job->state = persisted_state(job->state);
    seq_ = std::max(seq_, job->seq + 1);
    jobs_[job->id] = job;
    if (job->state == JobState::Queued) {
      job->resumed = true;
      counters_.add(JobsCounter::Resumed);
      pending_.push_back(job);
      ++requeued;
    }
    // Fold what the journal added back into the manifest so the next
    // restart (or a crash right now) starts from a clean compact point.
    compact(job->id, manifest_json_locked(*job));
  }
  schedule_locked();
  return requeued;
}

}  // namespace maps::serve
