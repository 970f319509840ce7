// Seeded inputs and server boot shared by the workloads.
#include <filesystem>
#include <stdexcept>

#include "bench.hpp"
#include "nn/models.hpp"
#include "nn/serialize.hpp"

namespace perfbench {

namespace {
constexpr double kClad = 2.085;  // SiO2
constexpr double kCore = 12.11;  // Si
}  // namespace

std::vector<double> make_pattern(std::mt19937_64& rng, int nx, int ny) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> a(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny));
  for (double& v : a) v = u(rng);
  // Separable box blur (radius 2) gives features a few cells wide.
  constexpr int r = 2;
  std::vector<double> b(a.size());
  for (int pass = 0; pass < 2; ++pass) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        double s = 0.0;
        int c = 0;
        for (int d = -r; d <= r; ++d) {
          const int ii = pass == 0 ? i + d : i, jj = pass == 0 ? j : j + d;
          if (ii < 0 || ii >= nx || jj < 0 || jj >= ny) continue;
          s += a[static_cast<std::size_t>(ii + nx * jj)];
          ++c;
        }
        b[static_cast<std::size_t>(i + nx * j)] = s / c;
      }
    }
    a.swap(b);
  }
  for (double& v : a) v = v > 0.5 ? kCore : kClad;
  return a;
}

const char* eps_text(double eps) { return eps == kCore ? "12.11" : "2.085"; }

Server boot_server(const RunContext& ctx, int attempt, io::JsonValue cfg) {
  const std::string dir = ctx.workdir + "/setup" + std::to_string(attempt);
  std::filesystem::create_directories(dir);
  cfg["http"] = true;
  cfg["model_id"] = "bench-fno";
  cfg["checkpoint"] = dir + "/model.bin";
  Server s;
  s.config = io::ServeConfig::from_json(cfg);
  auto model = nn::make_model(s.config.model);
  nn::save_parameters(*model, dir + "/model.bin");
  write_file(dir + "/serve.json", cfg.dump(2));
  s.proc = std::make_unique<ServerProcess>(cli_path(), dir + "/serve.json", dir + "/server.log");
  const Reply h = http_call(s.proc->port(), "GET", "/v1/healthz");
  if (h.failed || h.status != 200) throw std::runtime_error("server unhealthy after boot");
  return s;
}

}  // namespace perfbench
