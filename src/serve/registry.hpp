// ModelRegistry: versioned, hot-swappable surrogate models for serving.
//
// The registry publishes one active ServedModel bundle — the module itself
// plus everything a server needs to answer pattern queries with it: the
// input-encoding options and the dataset standardizer constants fitted at
// training time. Publication is a shared_ptr swap under a read-mostly lock:
// readers snapshot the active bundle in O(1) and keep serving it even while
// an operator hot-swaps a new checkpoint in, so in-flight requests never see
// a half-loaded model (no torn reads). Every install bumps a monotone
// version, which the result cache folds into its keys — stale predictions
// from a replaced model can never answer for the new one.
//
// Checkpoints load through nn::load_parameters (name/shape verified against
// the freshly built architecture) and are additionally screened for
// non-finite parameters before they become visible.
#pragma once

#include <memory>
#include <shared_mutex>
#include <string>

#include "core/train/encoding.hpp"
#include "nn/models.hpp"

namespace maps::serve {

/// Immutable published bundle. `model` is const because serving runs the
/// concurrency-safe Module::infer path only.
struct ServedModel {
  std::string id;       // operator-chosen name, e.g. "bend-fno"
  int version = 0;      // monotone across installs (hot-swap detection)
  nn::ModelConfig config;
  maps::train::EncodingOptions encoding;
  maps::train::Standardizer standardizer;
  std::shared_ptr<const nn::Module> model;
  index_t param_count = 0;
};

class ModelRegistry {
 public:
  /// Build the architecture from `config`, load and verify `checkpoint`
  /// (empty path = keep the fresh random initialization — a dev/bench mode),
  /// and publish it as the active model. Throws on any checkpoint mismatch
  /// or non-finite parameter; the previously active model stays published in
  /// that case.
  ///
  /// Standardizer precedence: `standardizer` is the base (defaults); "std_*"
  /// keys in the checkpoint's metadata trailer (written by the trainer, see
  /// nn::save_parameters) replace base fields; `overrides` (config-explicit
  /// values) win over both.
  std::shared_ptr<const ServedModel> load(
      const std::string& id, const nn::ModelConfig& config,
      const std::string& checkpoint, maps::train::EncodingOptions encoding = {},
      maps::train::Standardizer standardizer = {},
      const maps::train::StandardizerOverrides& overrides = {});

  /// Publish an already-constructed module (in-process embedding: the
  /// trainer handing its model straight to a service, benches, tests).
  std::shared_ptr<const ServedModel> install(
      const std::string& id, const nn::ModelConfig& config,
      std::unique_ptr<nn::Module> model, maps::train::EncodingOptions encoding = {},
      maps::train::Standardizer standardizer = {});

  /// Snapshot of the active model (nullptr before the first install).
  std::shared_ptr<const ServedModel> active() const;

  /// Version of the active model (0 before the first install).
  int version() const;

 private:
  std::shared_ptr<const ServedModel> publish(std::shared_ptr<ServedModel> bundle);

  mutable std::shared_mutex mu_;
  std::shared_ptr<const ServedModel> active_;
  int next_version_ = 1;
};

}  // namespace maps::serve
