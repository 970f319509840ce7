#include "io/runners.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>

#include <iostream>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

#include "core/data/generator.hpp"
#include "core/invdes/init.hpp"
#include "core/train/trainer.hpp"
#include "nn/serialize.hpp"
#include "runtime/datagen.hpp"
#include "serve/http_server.hpp"
#include "serve/jobs.hpp"
#include "serve/server.hpp"

namespace maps::io {

namespace {

JsonValue transmission_stats(const std::vector<double>& ts) {
  JsonValue v;
  if (ts.empty()) {
    v["count"] = 0;
    return v;
  }
  double lo = ts.front(), hi = ts.front(), sum = 0.0;
  for (const double t : ts) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
    sum += t;
  }
  v["count"] = static_cast<int>(ts.size());
  v["min"] = lo;
  v["max"] = hi;
  v["mean"] = sum / static_cast<double>(ts.size());
  return v;
}

}  // namespace

void write_density_csv(const maps::math::RealGrid& density, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw MapsError("write_density_csv: cannot open " + path);
  for (index_t j = 0; j < density.ny(); ++j) {
    for (index_t i = 0; i < density.nx(); ++i) {
      out << density(i, j) << (i + 1 == density.nx() ? '\n' : ',');
    }
  }
  out.close();  // flushes the last buffer: check after it, not before
  if (!out) throw MapsError("write_density_csv: write failed for " + path);
}

namespace {

/// Fail fast on an unwritable output path: a bad path must surface before
/// hours of simulation, and as a clear error rather than a post-hoc one.
/// The probe leaves no trace — a file it had to create is removed again, so
/// a later failure cannot strand an empty dataset that retry scripts would
/// mistake for output.
void probe_writable(const std::string& path) {
  const bool existed = std::filesystem::exists(path);
  {
    std::ofstream probe(path, std::ios::binary | std::ios::app);
    if (!probe.good()) {
      throw MapsError("datagen: output path is not writable: " + path);
    }
  }
  if (!existed) std::remove(path.c_str());
}

}  // namespace

JsonValue run_datagen(const DataGenConfig& config, std::ostream& log) {
  probe_writable(config.output);

  devices::BuildOptions build;
  build.fidelity = config.fidelity;
  auto device = devices::make_device(config.device, build);
  apply_solver_settings(device, config.solver);
  const runtime::ShardPlan plan{config.shard_index, config.shard_count};
  {
    std::ostringstream msg;
    msg << "device=" << devices::device_name(config.device)
        << " strategy=" << data::strategy_name(config.sampler.strategy)
        << " fidelity=" << config.fidelity
        << " solver=" << solver::solver_kind_name(config.solver.config.kind)
        << " shard=" << plan.index << "/" << plan.count
        << (config.resume ? " resume" : "");
    obs::log_to(&log, obs::LogLevel::Info, "datagen", msg.str());
  }

  const auto patterns = data::sample_patterns(device, config.device, config.sampler);
  obs::log_to(&log, obs::LogLevel::Info, "datagen",
              "sampled " + std::to_string(patterns.densities.size()) +
                  " patterns");

  // Phase lineup (the high-fidelity pass rides the same pipeline).
  std::vector<runtime::DatagenPhase> phases = {{&device, &patterns, 1}};
  devices::DeviceProblem device_hi;
  data::PatternSet hi_patterns;
  if (config.multi_fidelity) {
    devices::BuildOptions hi = build;
    hi.fidelity = config.fidelity * 2;
    device_hi = devices::make_device(config.device, hi);
    apply_solver_settings(device_hi, config.solver);
    hi_patterns = data::upsample_patterns(patterns, device_hi);
    const int factor = static_cast<int>(device_hi.spec.nx / device.spec.nx);
    phases.push_back({&device_hi, &hi_patterns, factor});
  }
  const std::string name = std::string(devices::device_name(config.device)) + "/" +
                           data::strategy_name(config.sampler.strategy);

  runtime::DatagenOptions opts;
  opts.shard = plan;
  opts.resume = config.resume;
  opts.memory_budget_mb = static_cast<std::size_t>(config.memory_budget_mb);
  opts.progress_every_s = 5.0;
  opts.log = &log;

  JsonValue report;
  report["task"] = "datagen";
  report["output"] = config.output;
  report["patterns"] = static_cast<int>(patterns.densities.size());

  runtime::DatagenStats stats;
  if (plan.single() && !config.resume) {
    // Single-process job: pipeline in memory, save directly.
    data::Dataset dataset = runtime::generate_pipelined(phases, name, opts, &stats);
    dataset.save(config.output);
    obs::log_to(&log, obs::LogLevel::Info, "datagen",
                "wrote " + std::to_string(dataset.size()) + " samples to " +
                    config.output);
    report["samples"] = static_cast<int>(dataset.size());
    report["transmission"] = transmission_stats(dataset.primary_transmissions());
  } else {
    // Sharded / resumable job: append to this shard's part file, then merge
    // once every shard reports done.
    stats = runtime::generate_sharded(phases, name, config.output, opts);
    JsonValue shard;
    shard["index"] = plan.index;
    shard["count"] = plan.count;
    // Per-phase pattern blocks (a multi-fidelity pattern counts per phase).
    shard["resumed_blocks"] = static_cast<int>(stats.skipped);
    shard["part"] = runtime::shard_part_path(config.output, plan.index, plan.count);
    bool merged = false;
    if (runtime::all_shards_done(config.output, plan.count)) {
      const auto dataset = runtime::merge_shards(config.output, plan.count);
      obs::log_to(&log, obs::LogLevel::Info, "datagen",
                  "merged " + std::to_string(plan.count) + " shard(s): " +
                      std::to_string(dataset.size()) + " samples -> " +
                      config.output);
      report["samples"] = static_cast<int>(dataset.size());
      report["transmission"] = transmission_stats(dataset.primary_transmissions());
      merged = true;
    } else {
      obs::log_to(&log, obs::LogLevel::Info, "datagen",
                  "shard " + std::to_string(plan.index) + "/" +
                      std::to_string(plan.count) +
                      " complete; waiting on other shards before merge");
      report["samples"] = static_cast<int>(stats.samples);
    }
    shard["merged"] = merged;
    report["shard"] = shard;
  }

  report["throughput"] = stats.to_json();
  {
    std::ostringstream msg;
    msg << "throughput: " << stats.patterns_per_s() << " patterns/s, "
        << stats.solves_per_s() << " solves/s";
    obs::log_to(&log, obs::LogLevel::Info, "datagen", msg.str());
  }
  report["config"] = config.to_json();
  return report;
}

JsonValue run_datagen_merge(const DataGenConfig& config, std::ostream& log) {
  // The config's shard_count is authoritative when sharded; a config driven
  // by --shard flags still says 1, so fall back to the manifests on disk.
  int count = config.shard_count;
  if (count <= 1) {
    const int detected = runtime::detect_shard_count(config.output);
    if (detected > 0) count = detected;
  }
  const auto dataset = runtime::merge_shards(config.output, count);
  obs::log_to(&log, obs::LogLevel::Info, "datagen",
              "merged " + std::to_string(count) + " shard(s): " +
                  std::to_string(dataset.size()) + " samples -> " +
                  config.output);
  JsonValue report;
  report["task"] = "datagen-merge";
  report["output"] = config.output;
  report["shards"] = count;
  report["samples"] = static_cast<int>(dataset.size());
  report["transmission"] = transmission_stats(dataset.primary_transmissions());
  return report;
}

JsonValue run_train(const TrainConfig& config, std::ostream& log) {
  const auto train_set = data::Dataset::load(config.dataset);
  log << "[train] dataset " << config.dataset << ": " << train_set.size()
      << " samples\n";

  train::LoaderOptions lopt;
  lopt.test_fraction = config.test_fraction;

  std::unique_ptr<train::DataLoader> loader;
  data::Dataset test_set;
  if (!config.test_dataset.empty()) {
    test_set = data::Dataset::load(config.test_dataset);
    log << "[train] held-out set " << config.test_dataset << ": " << test_set.size()
        << " samples\n";
    loader = std::make_unique<train::DataLoader>(train_set, test_set, lopt);
  } else {
    loader = std::make_unique<train::DataLoader>(train_set, lopt);
  }

  nn::ModelConfig mcfg = config.model;
  mcfg.in_channels = config.train.encoding.channels();
  auto model = nn::make_model(mcfg);
  log << "[train] model " << nn::model_name(mcfg.kind) << " ("
      << model->num_parameters() << " parameters), " << config.train.epochs
      << " epochs\n";

  devices::BuildOptions build;
  build.fidelity = config.fidelity;
  auto device = devices::make_device(config.device, build);
  apply_solver_settings(device, config.solver);

  train::Trainer trainer(*model, *loader, config.train);
  const auto result = trainer.fit(&device);

  if (!config.checkpoint.empty()) {
    // Embed the fitted standardizer as checkpoint provenance: serving loads
    // these "std_*" keys back so the constants no longer need to be copied
    // into the serve config by hand.
    const auto& std_ = loader->standardizer();
    const std::map<std::string, double> meta = {
        {"std_eps_lo", std_.eps_lo},
        {"std_eps_hi", std_.eps_hi},
        {"std_field_scale", std_.field_scale},
        {"std_j_scale", std_.j_scale},
        {"std_lambda_ref", std_.lambda_ref},
    };
    nn::save_parameters(*model, config.checkpoint, meta);
    log << "[train] checkpoint -> " << config.checkpoint << "\n";
  }

  JsonValue report;
  report["task"] = "train";
  report["model"] = nn::model_name(mcfg.kind);
  report["train_nl2"] = result.train_nl2;
  report["test_nl2"] = result.test_nl2;
  report["grad_similarity"] = result.grad_similarity;
  report["sparam_error"] = result.sparam_err;
  report["epochs"] = config.train.epochs;
  report["final_epoch_loss"] =
      result.epoch_losses.empty() ? 0.0 : result.epoch_losses.back();
  report["config"] = config.to_json();
  if (!config.report.empty()) json_save(report, config.report);
  log << "[train] train N-L2 " << result.train_nl2 << ", test N-L2 "
      << result.test_nl2 << ", grad sim " << result.grad_similarity << "\n";
  return report;
}

JsonValue run_invdes(const InvDesConfig& config, std::ostream& log) {
  devices::BuildOptions build;
  build.fidelity = config.fidelity;
  auto device = devices::make_device(config.device, build);
  apply_solver_settings(device, config.solver);
  auto pipeline = devices::make_default_pipeline(device, config.device, config.pipeline);

  auto theta0 =
      invdes::make_initial_theta(device, invdes::init_kind_from_name(config.init), config.seed);
  log << "[invdes] device=" << devices::device_name(config.device) << " init="
      << config.init << " iterations=" << config.options.iterations
      << " solver=" << solver::solver_kind_name(config.solver.config.kind) << "\n";

  invdes::InverseDesigner designer(device, std::move(pipeline), config.options);
  const auto result = designer.run(std::move(theta0));
  log << "[invdes] final FoM " << result.fom << " ("
      << result.total_factorizations << " factorizations / "
      << result.total_solves << " solves)\n";

  if (!config.density_out.empty()) {
    write_density_csv(result.density, config.density_out);
    log << "[invdes] density -> " << config.density_out << "\n";
  }
  if (!config.history_out.empty()) {
    std::ofstream out(config.history_out);
    if (!out) throw MapsError("run_invdes: cannot open " + config.history_out);
    out << "iteration,fom,beta\n";
    for (const auto& it : result.history) {
      out << it.iteration << ',' << it.fom << ',' << it.beta << '\n';
    }
    out.close();  // flushes the last buffer: check after it, not before
    if (!out) throw MapsError("run_invdes: write failed for " + config.history_out);
    log << "[invdes] history -> " << config.history_out << "\n";
  }

  JsonValue report;
  report["task"] = "invdes";
  report["device"] = devices::device_name(config.device);
  report["fom"] = result.fom;
  report["iterations"] = static_cast<int>(result.history.size());
  report["factorizations"] = result.total_factorizations;
  report["solves"] = result.total_solves;
  JsonArray ts;
  if (!result.history.empty()) {
    for (const double t : result.history.back().transmissions) ts.push_back(t);
  }
  report["final_transmissions"] = JsonValue(std::move(ts));
  report["config"] = config.to_json();
  if (!config.report.empty()) json_save(report, config.report);
  return report;
}

JsonValue run_serve(const ServeConfig& config, std::istream& in, std::ostream& out,
                    std::ostream& log, const std::atomic<bool>* stop) {
  // Apply the process-wide observability knobs first so every line below —
  // including model-load warnings — already honors the configured level and
  // format. The sink redirect routes stream-less emitters (the slow-request
  // span dump, log_global warnings) into this runner's log stream; restore
  // the default on every exit path so a later run_serve (tests run several
  // per process) never writes into a dead stream.
  obs::set_metrics_enabled(config.metrics);
  obs::set_log_level(obs::parse_log_level(config.log_level));
  obs::set_log_format(obs::parse_log_format(config.log_format));
  obs::set_log_sink(&log);
  struct SinkReset {
    ~SinkReset() { obs::set_log_sink(nullptr); }
  } sink_reset;

  auto registry = std::make_shared<serve::ModelRegistry>();
  maps::train::EncodingOptions encoding;
  encoding.wave_prior = config.wave_prior;
  const auto served = registry->load(config.model_id, config.model, config.checkpoint,
                                     encoding, config.standardizer,
                                     config.std_overrides);
  {
    std::ostringstream msg;
    msg << "model " << served->id << " v" << served->version << " ("
        << nn::model_name(config.model.kind) << ", " << served->param_count
        << " parameters" << (config.checkpoint.empty() ? ", RANDOM WEIGHTS" : "")
        << ")";
    obs::log_to(&log, obs::LogLevel::Info, "serve", msg.str());
  }
  if (config.checkpoint.empty()) {
    obs::log_to(&log, obs::LogLevel::Warn, "serve",
                "warning: no checkpoint configured — serving fresh random "
                "weights (dev mode)");
  }

  serve::PredictionService service(registry, config.serve);
  const auto defaults = config.wire_defaults();
  {
    std::ostringstream msg;
    msg << "cache=" << config.serve.cache_capacity << " workers=" << config.serve.workers
        << " fidelity_default=" << config.fidelity;
    obs::log_to(&log, obs::LogLevel::Info, "serve", msg.str());
  }

  serve::StreamOptions stream = config.stream;
  stream.stop = stop;
  // The jobs API shares the service's TaskQueue, so one optimization step
  // interleaves with predict batches instead of pinning a worker.
  std::unique_ptr<serve::JobManager> jobs;
  if (config.http && config.jobs) {
    serve::JobsOptions jobs_options;
    jobs_options.max_running = config.jobs_max_running;
    jobs_options.max_queued = config.jobs_max_queued;
    jobs_options.journal_dir = config.jobs_dir;
    jobs = std::make_unique<serve::JobManager>(service.task_queue(),
                                               jobs_options, &log);
    {
      std::ostringstream msg;
      msg << "jobs API mounted at /v1/jobs (max_running="
          << jobs_options.max_running << " max_queued=" << jobs_options.max_queued
          << (config.jobs_dir.empty() ? ", no journal"
                                      : ", journal " + config.jobs_dir)
          << ")";
      obs::log_to(&log, obs::LogLevel::Info, "serve", msg.str());
    }
    const int requeued = jobs->resume_journaled();
    if (requeued > 0) {
      obs::log_to(&log, obs::LogLevel::Info, "serve",
                  "resumed " + std::to_string(requeued) + " journaled job(s)");
    }
  }
  JsonValue http_report;
  if (config.http) {
    serve::HttpOptions http;
    http.bind_address = config.bind_address;
    http.port = config.port;
    http.stream = stream;
    http.jobs = jobs.get();
    const auto hr = serve::serve_http(service, defaults, http, &log, nullptr);
    http_report["requests"] = static_cast<double>(hr.requests);
    http_report["errors"] = static_cast<double>(hr.errors);
    http_report["connections"] = static_cast<double>(hr.connections);
  } else {
    serve::serve_stream(service, defaults, in, out, &log, stream);
  }
  if (stop != nullptr && stop->load()) {
    obs::log_to(&log, obs::LogLevel::Info, "serve",
                "graceful shutdown: in-flight work drained");
  }

  JsonValue report;
  report["task"] = "serve";
  report["model"] = served->id;
  report["model_version"] = served->version;
  if (jobs != nullptr) {
    const serve::JobsStatsSnapshot jobs_stats = jobs->stats();
    report["serve_stats"] = serve::stats_to_json(service.stats(), &jobs_stats);
  } else {
    report["serve_stats"] = serve::stats_to_json(service.stats());
  }
  if (config.http) report["http"] = http_report;
  report["config"] = config.to_json();
  if (!config.report.empty()) json_save(report, config.report);
  return report;
}

JsonValue run_config_json(const JsonValue& doc, std::ostream& log) {
  const std::string task = doc.at("task").as_string();
  // The "task" key routes; the runner configs reject unknown fields, so
  // strip it before handing over.
  JsonValue body = doc;
  body.as_object().erase("task");

  if (task == "datagen") return run_datagen(DataGenConfig::from_json(body), log);
  if (task == "train") return run_train(TrainConfig::from_json(body), log);
  if (task == "invdes") return run_invdes(InvDesConfig::from_json(body), log);
  if (task == "serve") {
    // The serve wire protocol owns stdout; running it through the generic
    // dispatch would append the report to the reply stream and corrupt it.
    throw MapsError(
        "run_config_file: task 'serve' must run via `maps_cli serve <config>` "
        "(replies on stdout, report on stderr)");
  }
  throw MapsError("run_config_file: unknown task '" + task + "'");
}

JsonValue run_config_file(const std::string& path, std::ostream& log) {
  return run_config_json(json_load(path), log);
}

}  // namespace maps::io
