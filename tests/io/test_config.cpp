// Typed configs: defaults, validation (including strict unknown-field
// rejection), name<->enum mappings, and to_json/from_json round trips.
#include <gtest/gtest.h>

#include "io/config.hpp"

namespace mio = maps::io;
using mio::JsonValue;

TEST(Config, DeviceNameMapping) {
  for (const auto kind : maps::devices::all_device_kinds()) {
    EXPECT_EQ(mio::device_kind_from_name(maps::devices::device_name(kind)), kind);
  }
  EXPECT_THROW(mio::device_kind_from_name("warp_core"), maps::MapsError);
}

TEST(Config, StrategyAndModelNameMapping) {
  EXPECT_EQ(mio::strategy_from_name("random"), maps::data::SamplingStrategy::Random);
  EXPECT_THROW(mio::strategy_from_name("psychic"), maps::MapsError);
  EXPECT_EQ(mio::model_kind_from_name("fno"), maps::nn::ModelKind::Fno);
  EXPECT_THROW(mio::model_kind_from_name("gpt"), maps::MapsError);
}

TEST(Config, DataGenDefaults) {
  const auto cfg = mio::DataGenConfig::from_json(mio::json_parse("{}"));
  EXPECT_EQ(cfg.device, maps::devices::DeviceKind::Bend);
  EXPECT_EQ(cfg.fidelity, 1);
  EXPECT_FALSE(cfg.multi_fidelity);
  EXPECT_EQ(cfg.sampler.strategy, maps::data::SamplingStrategy::Random);
}

TEST(Config, DataGenRejectsUnknownField) {
  EXPECT_THROW(mio::DataGenConfig::from_json(mio::json_parse(R"({"epocs": 3})")),
               maps::MapsError);
}

TEST(Config, DataGenValidatesRanges) {
  EXPECT_THROW(
      mio::DataGenConfig::from_json(mio::json_parse(R"({"fidelity": 9})")),
      maps::MapsError);
  EXPECT_THROW(mio::DataGenConfig::from_json(
                   mio::json_parse(R"({"blur_min": 3.0, "blur_max": 1.0})")),
               maps::MapsError);
  EXPECT_THROW(
      mio::DataGenConfig::from_json(mio::json_parse(R"({"num_patterns": 0})")),
      maps::MapsError);
}

TEST(Config, DataGenRoundTrip) {
  auto cfg = mio::DataGenConfig{};
  cfg.device = maps::devices::DeviceKind::Wdm;
  cfg.sampler.strategy = maps::data::SamplingStrategy::PerturbOptTraj;
  cfg.sampler.num_trajectories = 3;
  cfg.multi_fidelity = true;
  const auto back = mio::DataGenConfig::from_json(cfg.to_json());
  EXPECT_EQ(back.device, cfg.device);
  EXPECT_EQ(back.sampler.strategy, cfg.sampler.strategy);
  EXPECT_EQ(back.sampler.num_trajectories, 3);
  EXPECT_TRUE(back.multi_fidelity);
}

TEST(Config, TrainRequiresDataset) {
  EXPECT_THROW(mio::TrainConfig::from_json(mio::json_parse("{}")), maps::MapsError);
}

TEST(Config, TrainDefaultsAndWavePrior) {
  const auto cfg = mio::TrainConfig::from_json(
      mio::json_parse(R"({"dataset": "d.mapsd", "model": "neurolight"})"));
  EXPECT_EQ(cfg.model.kind, maps::nn::ModelKind::NeurOLight);
  // NeurOLight defaults to wave-prior encoding; input channels follow.
  EXPECT_TRUE(cfg.train.encoding.wave_prior);
  EXPECT_EQ(cfg.model.in_channels, 8);

  const auto fno = mio::TrainConfig::from_json(
      mio::json_parse(R"({"dataset": "d.mapsd", "model": "fno"})"));
  EXPECT_FALSE(fno.train.encoding.wave_prior);
  EXPECT_EQ(fno.model.in_channels, 4);
}

TEST(Config, TrainValidatesRanges) {
  EXPECT_THROW(mio::TrainConfig::from_json(mio::json_parse(
                   R"({"dataset": "d", "test_fraction": 1.5})")),
               maps::MapsError);
  EXPECT_THROW(
      mio::TrainConfig::from_json(mio::json_parse(R"({"dataset": "d", "lr": 0})")),
      maps::MapsError);
  EXPECT_THROW(mio::TrainConfig::from_json(
                   mio::json_parse(R"({"dataset": "d", "epochs": -1})")),
               maps::MapsError);
}

TEST(Config, TrainRoundTrip) {
  mio::TrainConfig cfg;
  cfg.dataset = "train.mapsd";
  cfg.test_dataset = "test.mapsd";
  cfg.model.kind = maps::nn::ModelKind::UNetKind;
  cfg.train.epochs = 7;
  cfg.train.maxwell_weight = 0.25;
  cfg.checkpoint = "model.ckpt";
  const auto back = mio::TrainConfig::from_json(cfg.to_json());
  EXPECT_EQ(back.test_dataset, "test.mapsd");
  EXPECT_EQ(back.model.kind, maps::nn::ModelKind::UNetKind);
  EXPECT_EQ(back.train.epochs, 7);
  EXPECT_DOUBLE_EQ(back.train.maxwell_weight, 0.25);
  EXPECT_EQ(back.checkpoint, "model.ckpt");
}

TEST(Config, InvDesDefaultsAndValidation) {
  const auto cfg = mio::InvDesConfig::from_json(mio::json_parse("{}"));
  EXPECT_EQ(cfg.init, "path_seed");
  EXPECT_GT(cfg.options.iterations, 0);

  EXPECT_THROW(mio::InvDesConfig::from_json(mio::json_parse(R"({"init": "psi"})")),
               maps::MapsError);
  EXPECT_THROW(mio::InvDesConfig::from_json(
                   mio::json_parse(R"({"beta_start": 8, "beta_end": 2})")),
               maps::MapsError);
  EXPECT_THROW(mio::InvDesConfig::from_json(mio::json_parse(R"({"iterations": 0})")),
               maps::MapsError);
}

TEST(Config, InvDesRoundTrip) {
  mio::InvDesConfig cfg;
  cfg.device = maps::devices::DeviceKind::Crossing;
  cfg.options.iterations = 12;
  cfg.init = "gray";
  cfg.density_out = "rho.csv";
  const auto back = mio::InvDesConfig::from_json(cfg.to_json());
  EXPECT_EQ(back.device, maps::devices::DeviceKind::Crossing);
  EXPECT_EQ(back.options.iterations, 12);
  EXPECT_EQ(back.init, "gray");
  EXPECT_EQ(back.density_out, "rho.csv");
}

TEST(Config, SolverFidelityStringSelectsBackend) {
  // "fidelity": "low" is the config spelling of the coarse-grid low-fidelity
  // solve path; numbers keep their legacy resolution-multiplier meaning.
  const auto lo = mio::InvDesConfig::from_json(mio::json_parse(R"({"fidelity": "low"})"));
  EXPECT_EQ(lo.fidelity, 1);
  EXPECT_EQ(lo.solver.fidelity, maps::solver::FidelityLevel::Low);
  EXPECT_EQ(lo.solver.config.kind, maps::solver::SolverKind::CoarseGrid);

  const auto med =
      mio::DataGenConfig::from_json(mio::json_parse(R"({"fidelity": "medium"})"));
  EXPECT_EQ(med.solver.config.kind, maps::solver::SolverKind::Iterative);

  const auto res = mio::DataGenConfig::from_json(mio::json_parse(R"({"fidelity": 2})"));
  EXPECT_EQ(res.fidelity, 2);
  EXPECT_EQ(res.solver.config.kind, maps::solver::SolverKind::Direct);

  EXPECT_THROW(mio::InvDesConfig::from_json(mio::json_parse(R"({"fidelity": "ultra"})")),
               maps::MapsError);
}

TEST(Config, SolverOverridesAndRoundTrip) {
  const auto cfg = mio::InvDesConfig::from_json(mio::json_parse(
      R"({"solver": "iterative", "solver_rtol": 1e-5, "solver_max_iters": 321,
          "cache_capacity": 3, "cache_capacity_mb": 64})"));
  EXPECT_EQ(cfg.solver.config.kind, maps::solver::SolverKind::Iterative);
  EXPECT_DOUBLE_EQ(cfg.solver.config.iterative.rtol, 1e-5);
  EXPECT_EQ(cfg.solver.config.iterative.max_iters, 321);
  EXPECT_EQ(cfg.solver.cache_capacity, 3);
  EXPECT_EQ(cfg.solver.cache_capacity_mb, 64);

  const auto back = mio::InvDesConfig::from_json(cfg.to_json());
  EXPECT_EQ(back.solver.config.kind, cfg.solver.config.kind);
  EXPECT_DOUBLE_EQ(back.solver.config.iterative.rtol, 1e-5);
  EXPECT_EQ(back.solver.cache_capacity, 3);
  EXPECT_EQ(back.solver.cache_capacity_mb, 64);

  EXPECT_THROW(mio::InvDesConfig::from_json(mio::json_parse(R"({"solver": "quantum"})")),
               maps::MapsError);
  EXPECT_THROW(
      mio::InvDesConfig::from_json(mio::json_parse(R"({"coarse_factor": 1})")),
      maps::MapsError);
  EXPECT_THROW(
      mio::InvDesConfig::from_json(mio::json_parse(R"({"cache_capacity_mb": -1})")),
      maps::MapsError);
}

TEST(Config, ApplySolverSettingsConfiguresDevice) {
  auto device = maps::devices::make_device(maps::devices::DeviceKind::Bend);
  mio::SolverSettings settings;
  settings.fidelity = maps::solver::FidelityLevel::Low;
  settings.config = maps::solver::SolverConfig::for_fidelity(settings.fidelity);
  settings.cache_capacity = 5;
  settings.cache_capacity_mb = 2;
  mio::apply_solver_settings(device, settings);
  EXPECT_EQ(device.sim_options.solver, maps::solver::SolverKind::CoarseGrid);
  ASSERT_NE(device.solver_cache, nullptr);
  EXPECT_EQ(device.solver_cache->capacity(), 5u);
  EXPECT_EQ(device.solver_cache->capacity_bytes(), 2u << 20);
}

TEST(Config, DataGenShardKeys) {
  const auto cfg = mio::DataGenConfig::from_json(
      mio::json_parse(R"({"shard_index": 1, "shard_count": 3, "resume": true})"));
  EXPECT_EQ(cfg.shard_index, 1);
  EXPECT_EQ(cfg.shard_count, 3);
  EXPECT_TRUE(cfg.resume);

  // Defaults: the whole job, no resume.
  const auto plain = mio::DataGenConfig::from_json(mio::json_parse("{}"));
  EXPECT_EQ(plain.shard_index, 0);
  EXPECT_EQ(plain.shard_count, 1);
  EXPECT_FALSE(plain.resume);

  // Round-trip through to_json.
  const auto rt = mio::DataGenConfig::from_json(cfg.to_json());
  EXPECT_EQ(rt.shard_index, 1);
  EXPECT_EQ(rt.shard_count, 3);
  EXPECT_TRUE(rt.resume);
}

TEST(Config, DataGenShardValidation) {
  EXPECT_THROW(
      mio::DataGenConfig::from_json(mio::json_parse(R"({"shard_count": 0})")),
      maps::MapsError);
  EXPECT_THROW(mio::DataGenConfig::from_json(
                   mio::json_parse(R"({"shard_index": 2, "shard_count": 2})")),
               maps::MapsError);
  EXPECT_THROW(mio::DataGenConfig::from_json(
                   mio::json_parse(R"({"shard_index": -1})")),
               maps::MapsError);
}

TEST(Config, SolverPrecisionKeysAndRoundTrip) {
  const auto cfg = mio::DataGenConfig::from_json(mio::json_parse(
      R"({"solver_precision": "mixed", "refine_rtol": 1e-11,
          "refine_max_iters": 7})"));
  EXPECT_EQ(cfg.solver.config.precision, maps::solver::SolverPrecision::Mixed);
  EXPECT_DOUBLE_EQ(cfg.solver.config.refinement.rtol, 1e-11);
  EXPECT_EQ(cfg.solver.config.refinement.max_iters, 7);

  const auto back = mio::DataGenConfig::from_json(cfg.to_json());
  EXPECT_EQ(back.solver.config.precision, maps::solver::SolverPrecision::Mixed);
  EXPECT_DOUBLE_EQ(back.solver.config.refinement.rtol, 1e-11);
  EXPECT_EQ(back.solver.config.refinement.max_iters, 7);

  // refine_max_iters = 0 is legal (the deterministic forced-fallback hook);
  // bad spellings and negative values are not.
  EXPECT_EQ(mio::DataGenConfig::from_json(
                mio::json_parse(R"({"refine_max_iters": 0})"))
                .solver.config.refinement.max_iters,
            0);
  EXPECT_THROW(mio::DataGenConfig::from_json(
                   mio::json_parse(R"({"solver_precision": "half"})")),
               maps::MapsError);
  EXPECT_THROW(mio::DataGenConfig::from_json(
                   mio::json_parse(R"({"refine_max_iters": -1})")),
               maps::MapsError);
  EXPECT_THROW(mio::DataGenConfig::from_json(
                   mio::json_parse(R"({"refine_rtol": 0})")),
               maps::MapsError);
}

TEST(Config, DataGenMemoryBudgetKey) {
  const auto cfg = mio::DataGenConfig::from_json(
      mio::json_parse(R"({"memory_budget_mb": 512})"));
  EXPECT_EQ(cfg.memory_budget_mb, 512);
  EXPECT_EQ(mio::DataGenConfig::from_json(cfg.to_json()).memory_budget_mb, 512);
  // Default off; negative rejected.
  EXPECT_EQ(mio::DataGenConfig::from_json(mio::json_parse("{}")).memory_budget_mb, 0);
  EXPECT_THROW(mio::DataGenConfig::from_json(
                   mio::json_parse(R"({"memory_budget_mb": -1})")),
               maps::MapsError);
}

TEST(Config, ServeStandardizerOverridesTrackExplicitKeys) {
  // Only keys present in the JSON become overrides: the rest must stay
  // unset so checkpoint provenance can fill them at registry load time.
  const auto cfg = mio::ServeConfig::from_json(
      mio::json_parse(R"({"std_eps_hi": 9.5, "std_j_scale": 2.0})"));
  EXPECT_TRUE(cfg.std_overrides.eps_hi.has_value());
  EXPECT_TRUE(cfg.std_overrides.j_scale.has_value());
  EXPECT_FALSE(cfg.std_overrides.eps_lo.has_value());
  EXPECT_FALSE(cfg.std_overrides.field_scale.has_value());
  EXPECT_FALSE(cfg.std_overrides.lambda_ref.has_value());
  EXPECT_DOUBLE_EQ(*cfg.std_overrides.eps_hi, 9.5);
  // The inline standardizer reflects the explicit values immediately.
  EXPECT_DOUBLE_EQ(cfg.standardizer.eps_hi, 9.5);
  EXPECT_DOUBLE_EQ(cfg.standardizer.j_scale, 2.0);

  const auto plain = mio::ServeConfig::from_json(mio::json_parse("{}"));
  EXPECT_FALSE(plain.std_overrides.any());
}

TEST(Config, ServeSolverPrecisionKey) {
  const auto cfg = mio::ServeConfig::from_json(
      mio::json_parse(R"({"solver_precision": "mixed"})"));
  EXPECT_EQ(cfg.serve.solver_precision, maps::solver::SolverPrecision::Mixed);
  const auto back = mio::ServeConfig::from_json(cfg.to_json());
  EXPECT_EQ(back.serve.solver_precision, maps::solver::SolverPrecision::Mixed);
}

TEST(Config, ServeCacheHasOneCapacityKey) {
  // The result cache is one LRU and the solver tier keeps no factorizations:
  // the keys that sized shards and a solver cache are unknown fields.
  const auto cfg = mio::ServeConfig::from_json(mio::json_parse(R"({"cache_capacity": 64})"));
  EXPECT_EQ(mio::ServeConfig::from_json(cfg.to_json()).serve.cache_capacity, 64u);
  for (const char* removed : {R"({"cache_shards": 8})", R"({"solver_cache_capacity": 4})"}) {
    try {
      (void)mio::ServeConfig::from_json(mio::json_parse(removed));
      ADD_FAILURE() << removed << " parsed";
    } catch (const maps::MapsError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown field"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Config, ServeJobsKeys) {
  // Off by default; a journal dir implies the jobs API.
  const auto plain = mio::ServeConfig::from_json(mio::json_parse("{}"));
  EXPECT_FALSE(plain.jobs);
  const auto cfg = mio::ServeConfig::from_json(mio::json_parse(
      R"({"http": true, "jobs_dir": "/tmp/j", "jobs_max_running": 2,
          "jobs_max_queued": 4})"));
  EXPECT_TRUE(cfg.jobs);
  EXPECT_EQ(cfg.jobs_dir, "/tmp/j");
  EXPECT_EQ(cfg.jobs_max_running, 2);
  EXPECT_EQ(cfg.jobs_max_queued, 4);
  const auto back = mio::ServeConfig::from_json(cfg.to_json());
  EXPECT_TRUE(back.jobs);
  EXPECT_EQ(back.jobs_max_running, 2);

  // Jobs and a listening port ride the HTTP front end only, and the knobs
  // have floors.
  for (const char* http_only : {R"({"jobs": true})", R"({"port": 8080})"}) {
    try {
      (void)mio::ServeConfig::from_json(mio::json_parse(http_only));
      ADD_FAILURE() << http_only << " parsed";
    } catch (const maps::MapsError& e) {
      EXPECT_NE(std::string(e.what()).find("HTTP front end"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(mio::ServeConfig::from_json(mio::json_parse(
                   R"({"http": true, "jobs": true, "jobs_max_running": 0})")),
               maps::MapsError);
  // There is no connection budget: max_connections is an unknown key.
  EXPECT_THROW(mio::ServeConfig::from_json(mio::json_parse(
                   R"({"http": true, "max_connections": 4})")),
               maps::MapsError);

  const auto listen = mio::ServeConfig::from_json(mio::json_parse(
      R"({"http": true, "port": 8080, "bind_address": "0.0.0.0"})"));
  const auto listen_back = mio::ServeConfig::from_json(listen.to_json());
  EXPECT_EQ(listen_back.port, 8080);
  EXPECT_EQ(listen_back.bind_address, "0.0.0.0");
}

TEST(Config, SweepJobDefaultsAndValidation) {
  const auto cfg = mio::SweepJobConfig::from_json(mio::json_parse("{}"));
  EXPECT_EQ(cfg.sweep, "corners");
  EXPECT_EQ(cfg.init, "path_seed");
  EXPECT_TRUE(cfg.theta.empty());
  ASSERT_EQ(cfg.wavelengths.size(), 1u);
  EXPECT_DOUBLE_EQ(cfg.wavelengths[0], 1.55);

  const auto sp = mio::SweepJobConfig::from_json(mio::json_parse(
      R"({"sweep": "sparams", "wavelengths": [1.5, 1.55, 1.6],
          "theta": [0.25, 0.75]})"));
  EXPECT_EQ(sp.sweep, "sparams");
  ASSERT_EQ(sp.wavelengths.size(), 3u);
  ASSERT_EQ(sp.theta.size(), 2u);
  const auto back = mio::SweepJobConfig::from_json(sp.to_json());
  EXPECT_EQ(back.sweep, "sparams");
  ASSERT_EQ(back.wavelengths.size(), 3u);
  EXPECT_DOUBLE_EQ(back.theta[1], 0.75);

  EXPECT_THROW(mio::SweepJobConfig::from_json(
                   mio::json_parse(R"({"sweep": "spiral"})")),
               maps::MapsError);
  EXPECT_THROW(mio::SweepJobConfig::from_json(
                   mio::json_parse(R"({"wavelengths": [-1.0]})")),
               maps::MapsError);
  EXPECT_THROW(mio::SweepJobConfig::from_json(
                   mio::json_parse(R"({"unknown_key": 1})")),
               maps::MapsError);
}

TEST(Config, ServeObservabilityKeys) {
  // Defaults: metrics on, slow-request dump disarmed, info-level text logs.
  const auto plain = mio::ServeConfig::from_json(mio::json_parse("{}"));
  EXPECT_TRUE(plain.metrics);
  EXPECT_EQ(plain.slow_request_ms, -1.0);
  EXPECT_EQ(plain.log_level, "info");
  EXPECT_EQ(plain.log_format, "text");
  EXPECT_EQ(plain.serve.slow_request_ms, -1.0);

  const auto cfg = mio::ServeConfig::from_json(mio::json_parse(
      R"({"metrics": false, "slow_request_ms": 250.5,
          "log_level": "debug", "log_format": "json"})"));
  EXPECT_FALSE(cfg.metrics);
  EXPECT_EQ(cfg.slow_request_ms, 250.5);
  EXPECT_EQ(cfg.serve.slow_request_ms, 250.5);  // plumbed into ServeOptions
  EXPECT_EQ(cfg.log_level, "debug");
  EXPECT_EQ(cfg.log_format, "json");

  // Round trip.
  const auto back = mio::ServeConfig::from_json(cfg.to_json());
  EXPECT_FALSE(back.metrics);
  EXPECT_EQ(back.slow_request_ms, 250.5);
  EXPECT_EQ(back.log_level, "debug");
  EXPECT_EQ(back.log_format, "json");

  // Spellings are validated at parse time.
  EXPECT_THROW(mio::ServeConfig::from_json(
                   mio::json_parse(R"({"log_level": "verbose"})")),
               maps::MapsError);
  EXPECT_THROW(mio::ServeConfig::from_json(
                   mio::json_parse(R"({"log_format": "xml"})")),
               maps::MapsError);
}
