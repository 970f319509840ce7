// Shared types of the benchmark runner: run context, metric tables, result
// accumulation and the seeded input generators.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "harness.hpp"
#include "io/config.hpp"
#include "net.hpp"

namespace perfbench {

using namespace maps;

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // scratch directory inside the checkout (created fresh)
  int nproc = 1;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload in the untraced run.
/// Their meaning per workload is listed in README.md.
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics, reported by every workload in the traced run; a layer
/// the workload does not exercise reads 0.
extern const std::vector<MetricDef> kPerLayer;

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> check_failures;  // any entry makes the run incorrect
  std::vector<std::string> invalid;         // reasons the run is invalid (not slow)
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> notes;           // human-readable detail lines
  std::string input_digest;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Set-up is repeated at least kSetupRepeats times and until kSetupMinSeconds
/// of set-up have run (at most kSetupMaxRepeats); setup_s is the median.
constexpr int kSetupRepeats = 5;
constexpr double kSetupMinSeconds = 1.0;
constexpr int kSetupMaxRepeats = 50;
/// True while another set-up round is due after `done` rounds taking
/// `elapsed_s` in total.
inline bool more_setup(int done, double elapsed_s) {
  return done < kSetupRepeats || (elapsed_s < kSetupMinSeconds && done < kSetupMaxRepeats);
}

int run_predict(const RunContext& ctx, RunResult& out);
int run_datagen(const RunContext& ctx, RunResult& out);
int run_invdes(const RunContext& ctx, RunResult& out);

/// Seeded binary permittivity pattern, (nx, ny) row-major with x fastest:
/// blurred uniform noise thresholded at 0.5 into cladding / core values.
std::vector<double> make_pattern(std::mt19937_64& rng, int nx, int ny);
/// JSON text of one permittivity value as the benchmark sends it.
const char* eps_text(double eps);

/// A booted `maps_cli serve --http` and the config it parsed.
struct Server {
  std::unique_ptr<ServerProcess> proc;
  io::ServeConfig config;
};
/// Boot set-up attempt `attempt`: write a checkpoint of the default serve
/// architecture (the model the server installs), write `cfg` plus the HTTP
/// and checkpoint keys as the server config, start the server and wait for
/// /v1/healthz.
Server boot_server(const RunContext& ctx, int attempt, io::JsonValue cfg);

/// Path of the maps_cli binary the benchmark boots as its server.
std::string cli_path();

/// Write `text` to `path` (throws on failure).
void write_file(const std::string& path, const std::string& text);
/// Total bytes of regular files under `dir`.
std::uint64_t dir_bytes(const std::string& dir);

std::string hex64(std::uint64_t v);
std::string fmt(double v, int precision = 4);

}  // namespace perfbench
