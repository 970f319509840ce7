// Library entry points behind the CLI tools. Each runner executes one
// config end-to-end and returns a JSON report (also written to the config's
// report path when set), so the tools stay one-line mains and the full CLI
// behaviour is unit-testable.
#pragma once

#include <atomic>
#include <iosfwd>

#include "io/config.hpp"

namespace maps::io {

/// Generate a dataset per config, save it to config.output, return a
/// summary (sample count, transmission stats, per-strategy metadata, and a
/// "throughput" block with patterns/s, solves/s and solver work counts).
/// Sharded configs (shard_count > 1, or resume) write the shard's .part
/// file + manifest through the runtime pipeline; once every shard's
/// manifest reports done, the full dataset is merged to config.output.
JsonValue run_datagen(const DataGenConfig& config, std::ostream& log);

/// Merge the completed shards of a datagen config into config.output
/// (byte-identical to a single-process run). Throws if shards are missing
/// or unfinished.
JsonValue run_datagen_merge(const DataGenConfig& config, std::ostream& log);

/// Train a model per config; returns the standardized metric report
/// (train/test N-L2, gradient similarity, S-param error).
JsonValue run_train(const TrainConfig& config, std::ostream& log);

/// Run adjoint inverse design per config; returns the final FoM,
/// transmissions, and iteration history summary.
JsonValue run_invdes(const InvDesConfig& config, std::ostream& log);

/// Run the prediction server (src/serve/): load the configured model into a
/// ModelRegistry and serve ndjson requests from `in` to `out` (stdio mode)
/// or over HTTP when config.http is set (`in`/`out` unused then). Returns
/// the ServeStats report once the stream closes or the HTTP server stops.
/// `stop`, when non-null, is the graceful-shutdown flag (flipped by
/// the CLI's SIGTERM/SIGINT handler): in-flight replies drain under
/// config.stream.drain_deadline_ms and the final stats report is still
/// produced.
JsonValue run_serve(const ServeConfig& config, std::istream& in, std::ostream& out,
                    std::ostream& log,
                    const std::atomic<bool>* stop = nullptr);

/// Dispatch on the config's "task" field ("datagen" | "train" | "invdes").
JsonValue run_config_file(const std::string& path, std::ostream& log);

/// Same dispatch for an already-parsed document (the CLI applies --shard /
/// --resume overrides to the document before dispatching).
JsonValue run_config_json(const JsonValue& doc, std::ostream& log);

/// Write a density grid as CSV (one row per y line).
void write_density_csv(const maps::math::RealGrid& density, const std::string& path);

}  // namespace maps::io
