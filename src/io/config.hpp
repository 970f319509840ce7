// Typed experiment configurations: the JSON schema of the MAPS CLI tools.
//
// Each config struct mirrors one tool (maps_datagen / maps_train /
// maps_invdes) and carries exactly the knobs its pipeline exposes. from_json
// validates field names strictly — an unknown key is an error, because a
// silently ignored typo ("epochs " vs "epochs") is the classic way an
// infrastructure benchmark stops being reproducible.
#pragma once

#include <string>
#include <vector>

#include "core/data/sampler.hpp"
#include "core/invdes/engine.hpp"
#include "core/train/trainer.hpp"
#include "devices/builders.hpp"
#include "io/json.hpp"
#include "nn/models.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "solver/backend.hpp"

namespace maps::io {

/// Name <-> enum mappings shared by configs and report writers.
devices::DeviceKind device_kind_from_name(const std::string& name);
data::SamplingStrategy strategy_from_name(const std::string& name);
nn::ModelKind model_kind_from_name(const std::string& name);
const char* model_kind_name(nn::ModelKind kind);

/// Solver backend selection shared by every tool config. In JSON the
/// "fidelity" key is dual-typed: a number is the legacy grid-resolution
/// multiplier, a string ("low" | "medium" | "high") selects the solver
/// fidelity level (low = coarse-grid, medium = iterative, high = direct).
/// "solver" overrides the kind directly; "solver_rtol" / "solver_max_iters"
/// tune the iterative backend, "coarse_factor" the coarse-grid backend and
/// "cache_capacity" (entries) / "cache_capacity_mb" (factor-byte budget,
/// 0 = unlimited) the device factorization cache. "solver_precision"
/// ("double" | "mixed") selects the direct path's factor precision —
/// mixed = fp32 factors + iterative refinement to double accuracy — and
/// "refine_rtol" / "refine_max_iters" tune the refinement loop.
struct SolverSettings {
  solver::FidelityLevel fidelity = solver::FidelityLevel::High;
  solver::SolverConfig config;  // kind follows fidelity unless "solver" given
  int cache_capacity = 8;
  int cache_capacity_mb = 0;  // memory-aware eviction budget; 0 = unlimited
};

/// Push parsed solver settings into a built device (backend kind, iterative
/// tolerances, coarse factor, cache capacity).
void apply_solver_settings(devices::DeviceProblem& device,
                           const SolverSettings& settings);

/// maps_datagen: sample patterns for a device and simulate rich labels.
/// Sharding (src/runtime/): "shard_index" / "shard_count" select this
/// process's slice of the pattern set (every shard derives the identical
/// patterns; positions are round-robined); "resume" re-adopts a killed
/// shard's committed prefix from its manifest instead of restarting.
struct DataGenConfig {
  devices::DeviceKind device = devices::DeviceKind::Bend;
  int fidelity = 1;
  bool multi_fidelity = false;  // pair each pattern at fidelity and 2x
  SolverSettings solver;
  /// Soft cap on the memory datagen's in-flight window may commit to
  /// direct-solve factors (MB). 0 keeps the fixed workers+2 window; a budget
  /// clamps the window by the per-pattern factor_bytes() estimate so large
  /// grids stop over-committing memory.
  int memory_budget_mb = 0;
  data::SamplerOptions sampler;
  std::string output = "dataset.mapsd";
  int shard_index = 0;
  int shard_count = 1;
  bool resume = false;

  static DataGenConfig from_json(const JsonValue& v);
  JsonValue to_json() const;
};

/// maps_train: train a field model on a dataset and report metrics.
struct TrainConfig {
  std::string dataset;            // training dataset path (required)
  std::string test_dataset;       // optional held-out set (else split)
  devices::DeviceKind device = devices::DeviceKind::Bend;
  int fidelity = 1;
  SolverSettings solver;
  nn::ModelConfig model;
  train::TrainOptions train;
  double test_fraction = 0.25;
  std::string checkpoint;         // optional parameter output path
  std::string report;             // optional metrics JSON output path

  static TrainConfig from_json(const JsonValue& v);
  JsonValue to_json() const;
};

/// maps_cli serve: the multi-fidelity surrogate prediction server
/// (src/serve/). "model"/"width"/"modes"/"depth" describe the architecture,
/// "checkpoint" the trainer-saved parameter file (empty = fresh random
/// weights, a dev mode), and the "standardizer" block carries the training
/// normalization constants the input encoder needs. "cache_capacity" sizes
/// the result cache, "workers" the inference worker pool
/// (0 = shared queue), "http" selects the HTTP front end (else ndjson on
/// stdin/stdout), and "escalate_rms_factor" arms the low-confidence solver
/// escalation screen.
struct ServeConfig {
  nn::ModelConfig model;
  bool wave_prior = false;
  std::string model_id = "default";
  std::string checkpoint;
  maps::train::Standardizer standardizer;
  /// Which std_* keys were explicitly present in the JSON: these outrank the
  /// checkpoint's embedded standardizer provenance at registry load time.
  maps::train::StandardizerOverrides std_overrides;
  serve::ServeOptions serve;
  /// Stream/connection limits and the graceful-shutdown drain deadline
  /// ("max_request_mb", "conn_max_inflight", "drain_deadline_ms"; the stop
  /// flag itself is wired at runtime, not from JSON).
  serve::StreamOptions stream;
  // Wire-request defaults.
  double dl = 0.1;
  double wavelength = 1.55;
  fdfd::PmlSpec pml;
  std::string fidelity = "low";
  /// Front-end selector: false = ndjson on stdin/stdout, true = the
  /// event-loop HTTP/1.1 server ("http" key). "port" and "bind_address"
  /// (serve beyond loopback) belong to the HTTP front end; a nonzero port
  /// without "http" is rejected at parse time.
  bool http = false;
  int port = 0;  // 0 picks a free port
  std::string bind_address = "127.0.0.1";
  std::string report;     // optional stats JSON output path
  /// Long-running jobs API (/v1/jobs, HTTP front end only). "jobs" mounts
  /// the endpoints; "jobs_dir" names the manifest/journal directory for
  /// crash-safe resume (empty = in-memory jobs, lost on restart);
  /// "jobs_max_running" / "jobs_max_queued" bound concurrency and the
  /// admission queue.
  bool jobs = false;
  std::string jobs_dir;
  int jobs_max_running = 1;
  int jobs_max_queued = 8;
  /// Observability: "metrics" toggles the process registry (histograms +
  /// /v1/metrics families), "slow_request_ms" arms the span-tree dump for
  /// requests slower than the threshold (-1 = off, 0 = every request),
  /// "log_level" / "log_format" configure the structured logger
  /// (debug|info|warn|error|off, text|json).
  bool metrics = true;
  double slow_request_ms = -1.0;
  std::string log_level = "info";
  std::string log_format = "text";

  serve::WireDefaults wire_defaults() const;

  static ServeConfig from_json(const JsonValue& v);
  JsonValue to_json() const;
};

/// maps_invdes: adjoint inverse design of one device.
struct InvDesConfig {
  devices::DeviceKind device = devices::DeviceKind::Bend;
  int fidelity = 1;
  SolverSettings solver;
  invdes::InvDesOptions options;
  devices::PipelineOptions pipeline;
  std::string init = "path_seed";  // gray | random | path_seed
  unsigned seed = 7;
  std::string density_out;         // optional final density CSV
  std::string history_out;         // optional per-iteration CSV
  std::string report;              // optional summary JSON

  static InvDesConfig from_json(const JsonValue& v);
  JsonValue to_json() const;
};

/// serve "/v1/jobs" sweep job: batched evaluations of one fixed design —
/// the lithography robustness corners of MAPS-InvDes ("sweep": "corners")
/// or a multi-wavelength S-parameter matrix ("sweep": "sparams"). "theta"
/// pins the design variables explicitly; when absent the design comes from
/// "init"/"seed" exactly as maps_invdes would start it.
struct SweepJobConfig {
  devices::DeviceKind device = devices::DeviceKind::Bend;
  int fidelity = 1;
  SolverSettings solver;
  std::string sweep = "corners";  // corners | sparams
  std::vector<double> theta;      // explicit design variables; empty = init
  std::string init = "path_seed";
  unsigned seed = 7;
  std::vector<double> wavelengths;  // sparams grid; defaults to {1.55}

  static SweepJobConfig from_json(const JsonValue& v);
  JsonValue to_json() const;
};

}  // namespace maps::io
