#include "io/config.hpp"

#include <arpa/inet.h>

#include <cctype>
#include <cmath>
#include <set>

#include "core/invdes/init.hpp"
#include "obs/log.hpp"

namespace maps::io {

namespace {

/// Strict field reader: tracks which keys were consumed so from_json can
/// reject typos.
class FieldReader {
 public:
  explicit FieldReader(const JsonValue& v, std::string scope)
      : obj_(v.as_object()), scope_(std::move(scope)) {}

  bool has(const std::string& key) {
    seen_.insert(key);
    return obj_.count(key) > 0;
  }
  const JsonValue& get(const std::string& key) {
    seen_.insert(key);
    const auto it = obj_.find(key);
    if (it == obj_.end()) {
      throw MapsError(scope_ + ": missing required field '" + key + "'");
    }
    return it->second;
  }
  double number(const std::string& key, double fallback) {
    return has(key) ? obj_.at(key).as_number() : fallback;
  }
  int integer(const std::string& key, int fallback) {
    return has(key) ? static_cast<int>(obj_.at(key).as_int()) : fallback;
  }
  bool boolean(const std::string& key, bool fallback) {
    return has(key) ? obj_.at(key).as_bool() : fallback;
  }
  std::string string(const std::string& key, const std::string& fallback) {
    return has(key) ? obj_.at(key).as_string() : fallback;
  }

  /// Call after reading every supported field.
  void reject_unknown() const {
    for (const auto& [k, v] : obj_) {
      if (!seen_.count(k)) {
        throw MapsError(scope_ + ": unknown field '" + k + "'");
      }
    }
  }

 private:
  const JsonObject& obj_;
  std::string scope_;
  std::set<std::string> seen_;
};

void check_positive(double v, const char* what) {
  if (!(v > 0.0)) {
    throw MapsError(std::string("config: ") + what + " must be positive");
  }
}

solver::SolverKind solver_kind_from_name(const std::string& name) {
  if (name == "direct") return solver::SolverKind::Direct;
  if (name == "iterative") return solver::SolverKind::Iterative;
  if (name == "coarse_grid" || name == "coarse") return solver::SolverKind::CoarseGrid;
  throw MapsError("config: solver must be direct | iterative | coarse_grid, got '" +
                  name + "'");
}

/// Shared solver-selection block. The "fidelity" key itself is read by the
/// caller (it is dual-typed with the legacy resolution multiplier); this
/// reads the explicit overrides. Returns the resolution multiplier.
int read_solver_settings(FieldReader& r, SolverSettings& s, const char* scope) {
  int resolution = 1;
  if (r.has("fidelity")) {
    const JsonValue& f = r.get("fidelity");
    if (f.is_string()) {
      s.fidelity = solver::fidelity_from_name(f.as_string());
    } else {
      resolution = static_cast<int>(f.as_int());
    }
  }
  if (r.has("solver_fidelity")) {
    s.fidelity = solver::fidelity_from_name(r.get("solver_fidelity").as_string());
  }
  s.config = solver::SolverConfig::for_fidelity(s.fidelity);
  if (r.has("solver")) {
    s.config.kind = solver_kind_from_name(r.get("solver").as_string());
  }
  s.config.iterative.rtol = r.number("solver_rtol", s.config.iterative.rtol);
  s.config.iterative.max_iters =
      r.integer("solver_max_iters", s.config.iterative.max_iters);
  s.config.coarse_factor = r.integer("coarse_factor", s.config.coarse_factor);
  // Explicit key wins over the MAPS_SOLVER_PRECISION environment default
  // SolverConfig was constructed with.
  if (r.has("solver_precision")) {
    s.config.precision =
        solver::solver_precision_from_name(r.get("solver_precision").as_string());
  }
  s.config.refinement.rtol = r.number("refine_rtol", s.config.refinement.rtol);
  s.config.refinement.max_iters =
      r.integer("refine_max_iters", s.config.refinement.max_iters);
  s.cache_capacity = r.integer("cache_capacity", s.cache_capacity);
  s.cache_capacity_mb = r.integer("cache_capacity_mb", s.cache_capacity_mb);
  if (s.config.coarse_factor < 2) {
    throw MapsError(std::string(scope) + ": coarse_factor must be >= 2");
  }
  if (s.cache_capacity < 1) {
    throw MapsError(std::string(scope) + ": cache_capacity must be >= 1");
  }
  if (s.cache_capacity_mb < 0) {
    throw MapsError(std::string(scope) + ": cache_capacity_mb must be >= 0");
  }
  check_positive(s.config.iterative.rtol, "solver_rtol");
  check_positive(s.config.iterative.max_iters, "solver_max_iters");
  check_positive(s.config.refinement.rtol, "refine_rtol");
  if (s.config.refinement.max_iters < 0) {
    // 0 is legal: it forces the double fallback on the first refined solve
    // (the deterministic stall-path test hook).
    throw MapsError(std::string(scope) + ": refine_max_iters must be >= 0");
  }
  return resolution;
}

void write_solver_settings(JsonValue& v, const SolverSettings& s) {
  v["solver_fidelity"] = solver::fidelity_name(s.fidelity);
  v["solver"] = solver::solver_kind_name(s.config.kind);
  v["solver_rtol"] = s.config.iterative.rtol;
  v["solver_max_iters"] = s.config.iterative.max_iters;
  v["coarse_factor"] = s.config.coarse_factor;
  v["solver_precision"] = solver::solver_precision_name(s.config.precision);
  v["refine_rtol"] = s.config.refinement.rtol;
  v["refine_max_iters"] = s.config.refinement.max_iters;
  v["cache_capacity"] = s.cache_capacity;
  v["cache_capacity_mb"] = s.cache_capacity_mb;
}

}  // namespace

void apply_solver_settings(devices::DeviceProblem& device,
                           const SolverSettings& settings) {
  device.sim_options.solver = settings.config.kind;
  device.sim_options.iterative = settings.config.iterative;
  device.sim_options.coarse_factor = settings.config.coarse_factor;
  device.sim_options.precision = settings.config.precision;
  device.sim_options.refinement = settings.config.refinement;
  if (device.solver_cache) {
    device.solver_cache->set_capacity(static_cast<std::size_t>(settings.cache_capacity));
  } else {
    device.solver_cache = std::make_shared<solver::FactorizationCache>(
        static_cast<std::size_t>(settings.cache_capacity));
  }
  device.solver_cache->set_capacity_bytes(
      static_cast<std::size_t>(settings.cache_capacity_mb) * (std::size_t{1} << 20));
}

devices::DeviceKind device_kind_from_name(const std::string& name) {
  for (const auto kind : devices::all_device_kinds()) {
    if (name == devices::device_name(kind)) return kind;
  }
  throw MapsError("config: unknown device '" + name + "'");
}

data::SamplingStrategy strategy_from_name(const std::string& name) {
  for (const auto s : {data::SamplingStrategy::Random, data::SamplingStrategy::OptTraj,
                       data::SamplingStrategy::PerturbOptTraj}) {
    if (name == data::strategy_name(s)) return s;
  }
  throw MapsError("config: unknown sampling strategy '" + name + "'");
}

nn::ModelKind model_kind_from_name(const std::string& name) {
  // Accept the display name in any case, with or without punctuation
  // ("F-FNO", "ffno", "f-fno" all work).
  auto canon = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '-' || c == '_' || c == ' ') continue;
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
  };
  const std::string want = canon(name);
  for (const auto kind : {nn::ModelKind::Fno, nn::ModelKind::Ffno,
                          nn::ModelKind::UNetKind, nn::ModelKind::NeurOLight,
                          nn::ModelKind::SParam}) {
    if (want == canon(nn::model_name(kind))) return kind;
  }
  throw MapsError("config: unknown model '" + name + "'");
}

const char* model_kind_name(nn::ModelKind kind) { return nn::model_name(kind); }

// ----------------------------------------------------------------- datagen

DataGenConfig DataGenConfig::from_json(const JsonValue& v) {
  FieldReader r(v, "datagen");
  DataGenConfig cfg;
  cfg.device = device_kind_from_name(r.string("device", "bending"));
  cfg.fidelity = read_solver_settings(r, cfg.solver, "datagen");
  if (cfg.fidelity < 1 || cfg.fidelity > 4) {
    throw MapsError("datagen: fidelity must be in [1, 4]");
  }
  cfg.multi_fidelity = r.boolean("multi_fidelity", false);
  cfg.memory_budget_mb = r.integer("memory_budget_mb", 0);
  if (cfg.memory_budget_mb < 0) {
    throw MapsError("datagen: memory_budget_mb must be >= 0");
  }
  cfg.output = r.string("output", "dataset.mapsd");
  cfg.shard_index = r.integer("shard_index", 0);
  cfg.shard_count = r.integer("shard_count", 1);
  cfg.resume = r.boolean("resume", false);
  if (cfg.shard_count < 1) {
    throw MapsError("datagen: shard_count must be >= 1");
  }
  if (cfg.shard_index < 0 || cfg.shard_index >= cfg.shard_count) {
    throw MapsError("datagen: shard_index must be in [0, shard_count)");
  }

  auto& s = cfg.sampler;
  s.strategy = strategy_from_name(r.string("strategy", "random"));
  s.num_patterns = r.integer("num_patterns", s.num_patterns);
  s.seed = static_cast<unsigned>(r.integer("seed", 1));
  s.blur_min = r.number("blur_min", s.blur_min);
  s.blur_max = r.number("blur_max", s.blur_max);
  s.threshold_min = r.number("threshold_min", s.threshold_min);
  s.threshold_max = r.number("threshold_max", s.threshold_max);
  s.num_trajectories = r.integer("num_trajectories", s.num_trajectories);
  s.traj_iterations = r.integer("traj_iterations", s.traj_iterations);
  s.record_every = r.integer("record_every", s.record_every);
  s.perturb_sigma = r.number("perturb_sigma", s.perturb_sigma);
  s.perturbs_per_snapshot = r.integer("perturbs_per_snapshot", s.perturbs_per_snapshot);
  r.reject_unknown();

  check_positive(s.num_patterns, "num_patterns");
  check_positive(s.num_trajectories, "num_trajectories");
  check_positive(s.traj_iterations, "traj_iterations");
  check_positive(s.record_every, "record_every");
  if (s.blur_max < s.blur_min || s.threshold_max < s.threshold_min) {
    throw MapsError("datagen: blur/threshold ranges must be ordered");
  }
  return cfg;
}

JsonValue DataGenConfig::to_json() const {
  JsonValue v;
  v["device"] = devices::device_name(device);
  v["fidelity"] = fidelity;
  write_solver_settings(v, solver);
  v["multi_fidelity"] = multi_fidelity;
  v["memory_budget_mb"] = memory_budget_mb;
  v["output"] = output;
  v["shard_index"] = shard_index;
  v["shard_count"] = shard_count;
  v["resume"] = resume;
  v["strategy"] = data::strategy_name(sampler.strategy);
  v["num_patterns"] = sampler.num_patterns;
  v["seed"] = static_cast<int>(sampler.seed);
  v["blur_min"] = sampler.blur_min;
  v["blur_max"] = sampler.blur_max;
  v["threshold_min"] = sampler.threshold_min;
  v["threshold_max"] = sampler.threshold_max;
  v["num_trajectories"] = sampler.num_trajectories;
  v["traj_iterations"] = sampler.traj_iterations;
  v["record_every"] = sampler.record_every;
  v["perturb_sigma"] = sampler.perturb_sigma;
  v["perturbs_per_snapshot"] = sampler.perturbs_per_snapshot;
  return v;
}

// ------------------------------------------------------------------- train

TrainConfig TrainConfig::from_json(const JsonValue& v) {
  FieldReader r(v, "train");
  TrainConfig cfg;
  cfg.dataset = r.get("dataset").as_string();
  cfg.test_dataset = r.string("test_dataset", "");
  cfg.device = device_kind_from_name(r.string("device", "bending"));
  cfg.fidelity = read_solver_settings(r, cfg.solver, "train");
  cfg.test_fraction = r.number("test_fraction", 0.25);
  cfg.checkpoint = r.string("checkpoint", "");
  cfg.report = r.string("report", "");

  cfg.model.kind = model_kind_from_name(r.string("model", "fno"));
  cfg.model.width = r.integer("width", static_cast<int>(cfg.model.width));
  cfg.model.modes = r.integer("modes", static_cast<int>(cfg.model.modes));
  cfg.model.depth = r.integer("depth", cfg.model.depth);
  cfg.model.seed = static_cast<unsigned>(r.integer("model_seed", 42));

  cfg.train.epochs = r.integer("epochs", cfg.train.epochs);
  cfg.train.batch = r.integer("batch", static_cast<int>(cfg.train.batch));
  cfg.train.lr = r.number("lr", cfg.train.lr);
  cfg.train.lr_min = r.number("lr_min", cfg.train.lr_min);
  cfg.train.maxwell_weight = r.number("maxwell_weight", 0.0);
  cfg.train.mixup_prob = r.number("mixup_prob", 0.0);
  cfg.train.encoding.wave_prior =
      r.boolean("wave_prior", cfg.model.kind == nn::ModelKind::NeurOLight);
  cfg.train.seed = static_cast<unsigned>(r.integer("train_seed", 11));
  cfg.train.verbose = r.boolean("verbose", false);
  r.reject_unknown();

  cfg.model.in_channels = cfg.train.encoding.channels();
  check_positive(cfg.train.epochs, "epochs");
  check_positive(static_cast<double>(cfg.train.batch), "batch");
  check_positive(cfg.train.lr, "lr");
  if (cfg.test_fraction <= 0.0 || cfg.test_fraction >= 1.0) {
    throw MapsError("train: test_fraction must be in (0, 1)");
  }
  return cfg;
}

JsonValue TrainConfig::to_json() const {
  JsonValue v;
  v["dataset"] = dataset;
  if (!test_dataset.empty()) v["test_dataset"] = test_dataset;
  v["device"] = devices::device_name(device);
  v["fidelity"] = fidelity;
  write_solver_settings(v, solver);
  v["model"] = nn::model_name(model.kind);
  v["width"] = model.width;
  v["modes"] = model.modes;
  v["depth"] = model.depth;
  v["model_seed"] = static_cast<int>(model.seed);
  v["epochs"] = train.epochs;
  v["batch"] = train.batch;
  v["lr"] = train.lr;
  v["lr_min"] = train.lr_min;
  v["maxwell_weight"] = train.maxwell_weight;
  v["mixup_prob"] = train.mixup_prob;
  v["wave_prior"] = train.encoding.wave_prior;
  v["train_seed"] = static_cast<int>(train.seed);
  v["verbose"] = train.verbose;
  v["test_fraction"] = test_fraction;
  if (!checkpoint.empty()) v["checkpoint"] = checkpoint;
  if (!report.empty()) v["report"] = report;
  return v;
}

// ------------------------------------------------------------------- serve

serve::WireDefaults ServeConfig::wire_defaults() const {
  serve::WireDefaults d;
  d.dl = dl;
  d.wavelength = wavelength;
  d.pml = pml;
  d.fidelity = solver::fidelity_from_name(fidelity);
  return d;
}

ServeConfig ServeConfig::from_json(const JsonValue& v) {
  FieldReader r(v, "serve");
  ServeConfig cfg;
  cfg.model.kind = model_kind_from_name(r.string("model", "fno"));
  cfg.model.width = r.integer("width", static_cast<int>(cfg.model.width));
  cfg.model.modes = r.integer("modes", static_cast<int>(cfg.model.modes));
  cfg.model.depth = r.integer("depth", cfg.model.depth);
  cfg.model.seed = static_cast<unsigned>(r.integer("model_seed", 42));
  cfg.wave_prior =
      r.boolean("wave_prior", cfg.model.kind == nn::ModelKind::NeurOLight);
  cfg.model.in_channels =
      maps::train::EncodingOptions{cfg.wave_prior}.channels();
  cfg.model_id = r.string("model_id", "default");
  cfg.checkpoint = r.string("checkpoint", "");

  // std_* keys are optional overrides: the checkpoint's embedded provenance
  // normally supplies these, and an explicitly configured value outranks it.
  // Track presence before reading so the registry knows which fields the
  // operator pinned.
  auto std_override = [&r](const char* key) -> std::optional<double> {
    if (!r.has(key)) return std::nullopt;
    return r.number(key, 0.0);
  };
  cfg.std_overrides.eps_lo = std_override("std_eps_lo");
  cfg.std_overrides.eps_hi = std_override("std_eps_hi");
  cfg.std_overrides.field_scale = std_override("std_field_scale");
  cfg.std_overrides.j_scale = std_override("std_j_scale");
  cfg.std_overrides.lambda_ref = std_override("std_lambda_ref");
  cfg.std_overrides.apply(cfg.standardizer);

  // The size_t knobs reject negatives before the cast — a config with
  // "workers": -1 must be a clean error, not a 2^64-thread TaskQueue.
  const auto non_negative = [](int v, const char* what) {
    if (v < 0) {
      throw MapsError(std::string("serve: ") + what + " must be >= 0");
    }
    return static_cast<std::size_t>(v);
  };
  cfg.serve.workers =
      non_negative(r.integer("workers", static_cast<int>(cfg.serve.workers)),
                   "workers");
  cfg.serve.cache_capacity = non_negative(
      r.integer("cache_capacity", static_cast<int>(cfg.serve.cache_capacity)),
      "cache_capacity");
  cfg.serve.escalate_rms_factor =
      r.number("escalate_rms_factor", cfg.serve.escalate_rms_factor);
  if (r.has("solver_precision")) {
    cfg.serve.solver_precision =
        solver::solver_precision_from_name(r.get("solver_precision").as_string());
  }

  // Reliability layer: admission control, escalation circuit breaker, and
  // stream limits / graceful-shutdown drain.
  cfg.serve.max_inflight = non_negative(
      r.integer("max_inflight", static_cast<int>(cfg.serve.max_inflight)),
      "max_inflight");
  cfg.serve.max_queue_ms = r.number("max_queue_ms", cfg.serve.max_queue_ms);
  cfg.serve.breaker_failures =
      r.integer("breaker_failures", cfg.serve.breaker_failures);
  cfg.serve.breaker_backoff_ms =
      r.number("breaker_backoff_ms", cfg.serve.breaker_backoff_ms);
  cfg.serve.breaker_backoff_max_ms =
      r.number("breaker_backoff_max_ms", cfg.serve.breaker_backoff_max_ms);
  cfg.serve.breaker_half_open_probes =
      r.integer("breaker_half_open_probes", cfg.serve.breaker_half_open_probes);
  const int max_request_mb = r.integer(
      "max_request_mb", static_cast<int>(cfg.stream.max_request_bytes >> 20));
  cfg.stream.max_request_bytes =
      non_negative(max_request_mb, "max_request_mb") << 20;
  cfg.stream.conn_max_inflight = non_negative(
      r.integer("conn_max_inflight", static_cast<int>(cfg.stream.conn_max_inflight)),
      "conn_max_inflight");
  cfg.stream.drain_deadline_ms =
      r.number("drain_deadline_ms", cfg.stream.drain_deadline_ms);
  cfg.serve.coalesce = r.boolean("coalesce", cfg.serve.coalesce);

  cfg.dl = r.number("dl", cfg.dl);
  cfg.wavelength = r.number("wavelength", cfg.wavelength);
  cfg.pml.ncells = r.integer("pml_ncells", cfg.pml.ncells);
  cfg.fidelity = r.string("fidelity", "low");
  cfg.port = r.integer("port", 0);
  cfg.http = r.boolean("http", false);
  cfg.bind_address = r.string("bind_address", cfg.bind_address);
  cfg.report = r.string("report", "");
  cfg.jobs_dir = r.string("jobs_dir", "");
  // A journal directory implies the jobs API: configuring where jobs persist
  // while leaving the endpoints unmounted would be a silent misconfiguration.
  cfg.jobs = r.boolean("jobs", !cfg.jobs_dir.empty());
  cfg.jobs_max_running = r.integer("jobs_max_running", cfg.jobs_max_running);
  cfg.jobs_max_queued = r.integer("jobs_max_queued", cfg.jobs_max_queued);
  cfg.metrics = r.boolean("metrics", cfg.metrics);
  cfg.slow_request_ms = r.number("slow_request_ms", cfg.slow_request_ms);
  cfg.serve.slow_request_ms = cfg.slow_request_ms;
  cfg.log_level = r.string("log_level", cfg.log_level);
  cfg.log_format = r.string("log_format", cfg.log_format);
  r.reject_unknown();

  // Validate the spellings now (throws MapsError on anything else); the
  // parsed values are applied process-wide by run_serve, not here.
  (void)obs::parse_log_level(cfg.log_level);
  (void)obs::parse_log_format(cfg.log_format);

  (void)solver::fidelity_from_name(cfg.fidelity);  // validate the spelling
  if (cfg.port < 0 || cfg.port > 65535) {
    throw MapsError("serve: port must be in [0, 65535]");
  }
  if (cfg.serve.max_queue_ms < 0.0) {
    throw MapsError("serve: max_queue_ms must be >= 0");
  }
  if (cfg.serve.breaker_failures > 0) {
    if (cfg.serve.breaker_backoff_ms <= 0.0) {
      throw MapsError("serve: breaker_backoff_ms must be > 0");
    }
    if (cfg.serve.breaker_backoff_max_ms < cfg.serve.breaker_backoff_ms) {
      throw MapsError("serve: breaker_backoff_max_ms must be >= breaker_backoff_ms");
    }
    if (cfg.serve.breaker_half_open_probes < 1) {
      throw MapsError("serve: breaker_half_open_probes must be >= 1");
    }
  }
  if (cfg.stream.drain_deadline_ms < 0.0) {
    throw MapsError("serve: drain_deadline_ms must be >= 0");
  }
  if (cfg.port != 0 && !cfg.http) {
    throw MapsError("serve: port requires the HTTP front end (\"http\": true)");
  }
  if (cfg.jobs && !cfg.http) {
    throw MapsError("serve: jobs requires the HTTP front end (\"http\": true)");
  }
  if (cfg.jobs_max_running < 1) {
    throw MapsError("serve: jobs_max_running must be >= 1");
  }
  if (cfg.jobs_max_queued < 0) {
    throw MapsError("serve: jobs_max_queued must be >= 0");
  }
  {
    // Fail at config-parse time, not bind time: a typo'd bind_address must
    // not get as far as loading models and opening sockets.
    in_addr parsed{};
    if (::inet_pton(AF_INET, cfg.bind_address.c_str(), &parsed) != 1) {
      throw MapsError("serve: invalid bind_address '" + cfg.bind_address +
                      "' (expected an IPv4 literal such as 127.0.0.1 or "
                      "0.0.0.0)");
    }
  }
  check_positive(cfg.dl, "dl");
  check_positive(cfg.wavelength, "wavelength");
  check_positive(cfg.standardizer.field_scale, "std_field_scale");
  check_positive(cfg.standardizer.j_scale, "std_j_scale");
  return cfg;
}

JsonValue ServeConfig::to_json() const {
  JsonValue v;
  v["model"] = nn::model_name(model.kind);
  v["width"] = model.width;
  v["modes"] = model.modes;
  v["depth"] = model.depth;
  v["model_seed"] = static_cast<int>(model.seed);
  v["wave_prior"] = wave_prior;
  v["model_id"] = model_id;
  if (!checkpoint.empty()) v["checkpoint"] = checkpoint;
  v["std_eps_lo"] = standardizer.eps_lo;
  v["std_eps_hi"] = standardizer.eps_hi;
  v["std_field_scale"] = standardizer.field_scale;
  v["std_j_scale"] = standardizer.j_scale;
  v["std_lambda_ref"] = standardizer.lambda_ref;
  v["workers"] = static_cast<int>(serve.workers);
  v["cache_capacity"] = static_cast<int>(serve.cache_capacity);
  v["escalate_rms_factor"] = serve.escalate_rms_factor;
  v["solver_precision"] = solver::solver_precision_name(serve.solver_precision);
  v["max_inflight"] = static_cast<int>(serve.max_inflight);
  v["max_queue_ms"] = serve.max_queue_ms;
  v["breaker_failures"] = serve.breaker_failures;
  v["breaker_backoff_ms"] = serve.breaker_backoff_ms;
  v["breaker_backoff_max_ms"] = serve.breaker_backoff_max_ms;
  v["breaker_half_open_probes"] = serve.breaker_half_open_probes;
  v["max_request_mb"] = static_cast<int>(stream.max_request_bytes >> 20);
  v["conn_max_inflight"] = static_cast<int>(stream.conn_max_inflight);
  v["drain_deadline_ms"] = stream.drain_deadline_ms;
  v["coalesce"] = serve.coalesce;
  v["dl"] = dl;
  v["wavelength"] = wavelength;
  v["pml_ncells"] = pml.ncells;
  v["fidelity"] = fidelity;
  v["port"] = port;
  v["http"] = http;
  v["bind_address"] = bind_address;
  if (!report.empty()) v["report"] = report;
  v["jobs"] = jobs;
  if (!jobs_dir.empty()) v["jobs_dir"] = jobs_dir;
  v["jobs_max_running"] = jobs_max_running;
  v["jobs_max_queued"] = jobs_max_queued;
  v["metrics"] = metrics;
  v["slow_request_ms"] = slow_request_ms;
  v["log_level"] = log_level;
  v["log_format"] = log_format;
  return v;
}

// ------------------------------------------------------------------ invdes

InvDesConfig InvDesConfig::from_json(const JsonValue& v) {
  FieldReader r(v, "invdes");
  InvDesConfig cfg;
  cfg.device = device_kind_from_name(r.string("device", "bending"));
  cfg.fidelity = read_solver_settings(r, cfg.solver, "invdes");
  cfg.options.iterations = r.integer("iterations", cfg.options.iterations);
  cfg.options.lr = r.number("lr", cfg.options.lr);
  cfg.options.beta_start = r.number("beta_start", cfg.options.beta_start);
  cfg.options.beta_end = r.number("beta_end", cfg.options.beta_end);
  cfg.options.gray_penalty = r.number("gray_penalty", cfg.options.gray_penalty);
  cfg.pipeline.blur_radius = r.number("blur_radius", cfg.pipeline.blur_radius);
  cfg.pipeline.beta = r.number("projection_beta", cfg.pipeline.beta);
  cfg.pipeline.eta = r.number("projection_eta", cfg.pipeline.eta);
  cfg.init = r.string("init", "path_seed");
  cfg.seed = static_cast<unsigned>(r.integer("seed", 7));
  cfg.density_out = r.string("density_out", "");
  cfg.history_out = r.string("history_out", "");
  cfg.report = r.string("report", "");
  r.reject_unknown();

  (void)invdes::init_kind_from_name(cfg.init);  // validate the spelling
  check_positive(cfg.options.iterations, "iterations");
  check_positive(cfg.options.lr, "lr");
  check_positive(cfg.options.beta_start, "beta_start");
  if (cfg.options.beta_end < cfg.options.beta_start) {
    throw MapsError("invdes: beta_end must be >= beta_start");
  }
  return cfg;
}

JsonValue InvDesConfig::to_json() const {
  JsonValue v;
  v["device"] = devices::device_name(device);
  v["fidelity"] = fidelity;
  write_solver_settings(v, solver);
  v["iterations"] = options.iterations;
  v["lr"] = options.lr;
  v["beta_start"] = options.beta_start;
  v["beta_end"] = options.beta_end;
  v["gray_penalty"] = options.gray_penalty;
  v["blur_radius"] = pipeline.blur_radius;
  v["projection_beta"] = pipeline.beta;
  v["projection_eta"] = pipeline.eta;
  v["init"] = init;
  v["seed"] = static_cast<int>(seed);
  if (!density_out.empty()) v["density_out"] = density_out;
  if (!history_out.empty()) v["history_out"] = history_out;
  if (!report.empty()) v["report"] = report;
  return v;
}

// ------------------------------------------------------------------- sweep

SweepJobConfig SweepJobConfig::from_json(const JsonValue& v) {
  FieldReader r(v, "sweep");
  SweepJobConfig cfg;
  cfg.device = device_kind_from_name(r.string("device", "bending"));
  cfg.fidelity = read_solver_settings(r, cfg.solver, "sweep");
  cfg.sweep = r.string("sweep", "corners");
  if (r.has("theta")) {
    for (const auto& t : r.get("theta").as_array()) {
      cfg.theta.push_back(t.as_number());
    }
  }
  cfg.init = r.string("init", "path_seed");
  cfg.seed = static_cast<unsigned>(r.integer("seed", 7));
  if (r.has("wavelengths")) {
    for (const auto& w : r.get("wavelengths").as_array()) {
      cfg.wavelengths.push_back(w.as_number());
    }
  }
  if (cfg.wavelengths.empty()) cfg.wavelengths.push_back(1.55);
  r.reject_unknown();

  if (cfg.sweep != "corners" && cfg.sweep != "sparams") {
    throw MapsError("sweep: sweep must be corners | sparams");
  }
  (void)invdes::init_kind_from_name(cfg.init);  // validate the spelling
  for (const double w : cfg.wavelengths) check_positive(w, "wavelengths");
  for (const double t : cfg.theta) {
    if (!std::isfinite(t)) throw MapsError("sweep: theta must be finite");
  }
  return cfg;
}

JsonValue SweepJobConfig::to_json() const {
  JsonValue v;
  v["device"] = devices::device_name(device);
  v["fidelity"] = fidelity;
  write_solver_settings(v, solver);
  v["sweep"] = sweep;
  if (!theta.empty()) {
    JsonArray t(theta.begin(), theta.end());
    v["theta"] = JsonValue(std::move(t));
  }
  v["init"] = init;
  v["seed"] = static_cast<int>(seed);
  JsonArray w(wavelengths.begin(), wavelengths.end());
  v["wavelengths"] = JsonValue(std::move(w));
  return v;
}

}  // namespace maps::io
