// The paper's headline motivation: AI surrogates accelerate simulation by
// orders of magnitude over numerical solvers. Compares a full FDFD solve
// (assemble + factorize + solve) against one FNO inference at the same
// resolution, plus the amortized re-solve (factorization cached) case.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/invdes/engine.hpp"
#include "core/invdes/init.hpp"
#include "devices/builders.hpp"
#include "devices/sparams.hpp"
#include "fdfd/simulation.hpp"
#include "fdfd/source.hpp"
#include "fdfd/te.hpp"
#include "math/parallel.hpp"
#include "math/rng.hpp"
#include "param/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/http_server.hpp"
#include "serve/service.hpp"

using namespace maps;

namespace {

math::RealGrid random_eps(index_t n) {
  math::Rng rng(11);
  math::RealGrid eps(n, n, 2.07);
  for (index_t j = n / 3; j < 2 * n / 3; ++j) {
    for (index_t i = n / 3; i < 2 * n / 3; ++i) {
      eps(i, j) = 2.07 + 10.0 * rng.uniform();
    }
  }
  return eps;
}

fdfd::SimOptions sim_opt(index_t n) {
  fdfd::SimOptions o;
  o.pml.ncells = static_cast<int>(n / 8);
  return o;
}

}  // namespace

static void BM_FdfdFullSolve(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto eps = random_eps(n);
  grid::GridSpec spec{n, n, 6.4 / static_cast<double>(n)};
  const auto J = fdfd::point_source(spec, n / 4, n / 2);
  for (auto _ : state) {
    fdfd::Simulation sim(spec, eps, omega_of_wavelength(1.55), sim_opt(n));
    benchmark::DoNotOptimize(sim.solve(J));
  }
}
BENCHMARK(BM_FdfdFullSolve)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

static void BM_FdfdFullSolveMixed(benchmark::State& state) {
  // The same full solve on SolverPrecision::Mixed: fp32 LDL^T
  // factorization + iterative refinement to double accuracy. The ratio of
  // BM_FdfdFullSolve to this is the mixed-precision speedup the CI perf
  // gate tracks as fdfd_mixed_vs_double.
  const index_t n = state.range(0);
  const auto eps = random_eps(n);
  grid::GridSpec spec{n, n, 6.4 / static_cast<double>(n)};
  const auto J = fdfd::point_source(spec, n / 4, n / 2);
  auto opts = sim_opt(n);
  opts.precision = solver::SolverPrecision::Mixed;
  for (auto _ : state) {
    fdfd::Simulation sim(spec, eps, omega_of_wavelength(1.55), opts);
    benchmark::DoNotOptimize(sim.solve(J));
  }
}
BENCHMARK(BM_FdfdFullSolveMixed)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

static void BM_FdfdCachedResolve(benchmark::State& state) {
  // New source, same structure: factorization amortized.
  const index_t n = state.range(0);
  const auto eps = random_eps(n);
  grid::GridSpec spec{n, n, 6.4 / static_cast<double>(n)};
  fdfd::Simulation sim(spec, eps, omega_of_wavelength(1.55), sim_opt(n));
  const auto J = fdfd::point_source(spec, n / 4, n / 2);
  (void)sim.solve(J);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.solve(J));
  }
}
BENCHMARK(BM_FdfdCachedResolve)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

static void BM_FdfdSequentialMultiRhs(benchmark::State& state) {
  // 8 sources through one factorization, one back-substitution pass each.
  const index_t n = state.range(0);
  const auto eps = random_eps(n);
  grid::GridSpec spec{n, n, 6.4 / static_cast<double>(n)};
  fdfd::Simulation sim(spec, eps, omega_of_wavelength(1.55), sim_opt(n));
  std::vector<math::CplxGrid> Js;
  for (index_t k = 0; k < 8; ++k) {
    Js.push_back(fdfd::point_source(spec, n / 4 + 2 * k, n / 2));
  }
  (void)sim.solve(Js[0]);  // factorize outside the timed loop
  for (auto _ : state) {
    for (const auto& J : Js) benchmark::DoNotOptimize(sim.solve(J));
  }
}
BENCHMARK(BM_FdfdSequentialMultiRhs)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

static void BM_FdfdBatchedMultiRhs(benchmark::State& state) {
  // Same 8 sources through solve_batch: the multi-RHS banded sweep streams
  // the LU factors once per batch slice instead of once per source.
  const index_t n = state.range(0);
  const auto eps = random_eps(n);
  grid::GridSpec spec{n, n, 6.4 / static_cast<double>(n)};
  fdfd::Simulation sim(spec, eps, omega_of_wavelength(1.55), sim_opt(n));
  std::vector<math::CplxGrid> Js;
  for (index_t k = 0; k < 8; ++k) {
    Js.push_back(fdfd::point_source(spec, n / 4 + 2 * k, n / 2));
  }
  (void)sim.solve(Js[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.solve_batch(Js));
  }
}
BENCHMARK(BM_FdfdBatchedMultiRhs)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

static void BM_FdfdWavelengthSweepCold(benchmark::State& state) {
  // 4-omega sweep, no cache: every omega re-assembles and re-factorizes.
  const index_t n = state.range(0);
  const auto eps = random_eps(n);
  grid::GridSpec spec{n, n, 6.4 / static_cast<double>(n)};
  const auto J = fdfd::point_source(spec, n / 4, n / 2);
  for (auto _ : state) {
    for (const double lambda : {1.50, 1.55, 1.60, 1.65}) {
      fdfd::Simulation sim(spec, eps, omega_of_wavelength(lambda), sim_opt(n));
      benchmark::DoNotOptimize(sim.solve(J));
    }
  }
}
BENCHMARK(BM_FdfdWavelengthSweepCold)->Arg(64)->Unit(benchmark::kMillisecond);

static void BM_FdfdWavelengthSweepCached(benchmark::State& state) {
  // Same sweep through a FactorizationCache: after the first pass every
  // omega's factorization is a cache hit and only back-substitution remains.
  const index_t n = state.range(0);
  const auto eps = random_eps(n);
  grid::GridSpec spec{n, n, 6.4 / static_cast<double>(n)};
  const auto J = fdfd::point_source(spec, n / 4, n / 2);
  auto opts = sim_opt(n);
  opts.cache = std::make_shared<solver::FactorizationCache>(8);
  for (const double lambda : {1.50, 1.55, 1.60, 1.65}) {
    fdfd::Simulation sim(spec, eps, omega_of_wavelength(lambda), opts);
    (void)sim.solve(J);  // warm the cache
  }
  for (auto _ : state) {
    for (const double lambda : {1.50, 1.55, 1.60, 1.65}) {
      fdfd::Simulation sim(spec, eps, omega_of_wavelength(lambda), opts);
      benchmark::DoNotOptimize(sim.solve(J));
    }
  }
}
BENCHMARK(BM_FdfdWavelengthSweepCached)->Arg(64)->Unit(benchmark::kMillisecond);

static void BM_FdfdCoarseGridSolve(benchmark::State& state) {
  // The Low-fidelity path: restrict, solve on the half-resolution grid,
  // prolongate (~8x cheaper LU at matched physics). The ratio of
  // BM_FdfdFullSolve to this is the fidelity axis's cost ordering the CI
  // perf gate tracks as fdfd_coarse_vs_full.
  const index_t n = state.range(0);
  const auto eps = random_eps(n);
  grid::GridSpec spec{n, n, 6.4 / static_cast<double>(n)};
  const auto J = fdfd::point_source(spec, n / 4, n / 2);
  auto opts = sim_opt(n);
  opts.set_fidelity(fdfd::FidelityLevel::Low);
  for (auto _ : state) {
    fdfd::Simulation sim(spec, eps, omega_of_wavelength(1.55), opts);
    benchmark::DoNotOptimize(sim.solve(J));
  }
}
BENCHMARK(BM_FdfdCoarseGridSolve)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

static void BM_InvdesStep(benchmark::State& state) {
  // One adjoint inverse-design iteration on the bend device: forward solves
  // for every excitation group plus one transposed (adjoint) batch, all
  // against one factorization per group — the direct-solve-dominated hot
  // loop of MAPS-InvDes, riding the LDL^T kernel end to end.
  const auto device = devices::make_device(devices::DeviceKind::Bend);
  const auto theta0 = invdes::make_initial_theta(device, invdes::InitKind::PathSeed);
  invdes::InvDesOptions options;
  options.iterations = 1;
  for (auto _ : state) {
    invdes::InverseDesigner designer(
        device, devices::make_default_pipeline(device, devices::DeviceKind::Bend),
        options);
    benchmark::DoNotOptimize(designer.run(theta0));
  }
}
BENCHMARK(BM_InvdesStep)->Unit(benchmark::kMillisecond);

namespace {

// Full S-parameter pass over the bend device's excitations at three
// wavelengths: one assembly + factorization + solve per (excitation,
// lambda) — the verification sweep that follows every inverse-design run.
// Shared by the double and mixed-precision variants so the ratio the CI perf
// gate tracks cannot drift from a one-sided edit.
void sparam_sweep_body(benchmark::State& state) {
  std::vector<devices::DeviceProblem> sweep;
  for (const double lambda : {1.50, 1.55, 1.60}) {
    devices::BuildOptions bo;
    bo.lambda = lambda;
    sweep.push_back(devices::make_device(devices::DeviceKind::Bend, bo));
  }
  maps::math::RealGrid rho(sweep.front().design_map.box.ni,
                           sweep.front().design_map.box.nj, 0.5);
  const auto eps = param::embed_density(sweep.front().design_map, rho);
  for (auto _ : state) {
    for (const auto& device : sweep) {
      benchmark::DoNotOptimize(devices::compute_sparams(device, eps));
    }
  }
}

}  // namespace

static void BM_SparamSweep(benchmark::State& state) { sparam_sweep_body(state); }
BENCHMARK(BM_SparamSweep)->Unit(benchmark::kMillisecond);

namespace {

/// RAII save/set/restore of one environment variable for A/B bench bodies.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    had_ = prev != nullptr;
    if (had_) saved_ = prev;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

}  // namespace

static void BM_SparamSweepMixed(benchmark::State& state) {
  // The same sweep with MAPS_SOLVER_PRECISION=mixed: every factorization in
  // the pass runs fp32 + refinement. BM_SparamSweep / this is the
  // sparam_mixed_vs_double CI gate — the end-to-end mixed-precision win on
  // the verification workload, measured within one run.
  ScopedEnv env("MAPS_SOLVER_PRECISION", "mixed");
  sparam_sweep_body(state);
}
BENCHMARK(BM_SparamSweepMixed)->Unit(benchmark::kMillisecond);

static void BM_TeSolveSplit(benchmark::State& state) {
  // TE (Hz-polarized) full solve: assembly + factorization + one solve, the
  // hot loop of TE-mode studies.
  const index_t n = state.range(0);
  const auto eps = random_eps(n);
  grid::GridSpec spec{n, n, 6.4 / static_cast<double>(n)};
  const auto Mz = fdfd::point_source(spec, n / 4, n / 2);
  fdfd::PmlSpec pml;
  pml.ncells = static_cast<int>(n / 8);
  for (auto _ : state) {
    fdfd::TeSimulation sim(spec, eps, omega_of_wavelength(1.55), pml);
    benchmark::DoNotOptimize(sim.solve(Mz));
  }
}
BENCHMARK(BM_TeSolveSplit)->Arg(64)->Unit(benchmark::kMillisecond);

namespace {

// ------------------------------------------------------------ serve query
//
// Every serve bench runs the model `maps_cli serve` installs (the
// nn::ModelConfig defaults) on a 64x64 grid, so they time the forward
// production serves.

constexpr index_t kServeGrid = 64;

std::shared_ptr<maps::serve::ModelRegistry> serve_registry() {
  const nn::ModelConfig mcfg;
  auto registry = std::make_shared<maps::serve::ModelRegistry>();
  registry->install("bench-fno", mcfg, nn::make_model(mcfg));
  return registry;
}

maps::serve::ServeRequest serve_request() {
  const index_t n = kServeGrid;
  grid::GridSpec spec{n, n, 6.4 / static_cast<double>(n)};
  math::Rng rng(29);
  maps::serve::ServeRequest req;
  req.spec = spec;
  math::RealGrid eps(n, n, 2.07);
  for (index_t j = n / 3; j < 2 * n / 3; ++j) {
    for (index_t i = n / 3; i < 2 * n / 3; ++i) {
      eps(i, j) = 2.07 + 10.0 * rng.uniform();
    }
  }
  req.eps = std::move(eps);
  req.J = fdfd::point_source(spec, n / 4, n / 2);
  req.omega = omega_of_wavelength(1.55);
  req.pml.ncells = static_cast<int>(n / 8);
  req.fidelity = solver::FidelityLevel::Low;
  return req;
}

// ----------------------------------------------------- stampede coalescing
//
// BM_ServeStampede pair: 32 clients race the SAME cold-cache query. Without
// coalescing every racer runs its own surrogate forward; with it the first
// becomes the leader, the other 31 attach to the in-flight computation and
// share the answer. The CI perf gate tracks the ratio of the two real_times
// as serve_coalesced_vs_stampede.

constexpr int kStampedeClients = 32;

double run_stampede_wave(maps::serve::PredictionService& service,
                         const maps::serve::ServeRequest& req) {
  std::vector<maps::runtime::Future<maps::serve::ServeResponse>> futures;
  futures.reserve(kStampedeClients);
  for (int k = 0; k < kStampedeClients; ++k) futures.push_back(service.submit(req));
  double checksum = 0.0;
  for (auto& f : futures) checksum += f.get().latency_ms;
  return checksum;
}

maps::serve::ServeOptions stampede_options(bool coalesce) {
  maps::serve::ServeOptions options;
  options.workers = 2;
  options.cache_capacity = 0;  // every wave is a cold-cache stampede
  options.coalesce = coalesce;
  return options;
}

}  // namespace

static void BM_ServeStampede(benchmark::State& state) {
  const auto registry = serve_registry();
  const auto req = serve_request();
  maps::serve::PredictionService service(registry, stampede_options(false));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_stampede_wave(service, req));
  }
  state.SetItemsProcessed(state.iterations() * kStampedeClients);
}
BENCHMARK(BM_ServeStampede)->Unit(benchmark::kMillisecond);

static void BM_ServeStampedeCoalesced(benchmark::State& state) {
  const auto registry = serve_registry();
  const auto req = serve_request();
  maps::serve::PredictionService service(registry, stampede_options(true));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_stampede_wave(service, req));
  }
  state.SetItemsProcessed(state.iterations() * kStampedeClients);
}
BENCHMARK(BM_ServeStampedeCoalesced)->Unit(benchmark::kMillisecond);

// BM_ServeObs pair: the coalesced stampede workload with the observability
// layer fully off (metrics disabled, no traces — every instrumentation site
// degrades to one relaxed atomic load or null check) versus fully on
// (histograms recording and a Trace allocated and carried per request). The
// CI gate tracks off_time/instrumented_time as serve_obs_overhead with a
// baseline near 1.0: instrumentation must stay in the noise.

static void BM_ServeObsOff(benchmark::State& state) {
  maps::obs::set_metrics_enabled(false);
  const auto registry = serve_registry();
  const auto req = serve_request();
  maps::serve::PredictionService service(registry, stampede_options(true));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_stampede_wave(service, req));
  }
  state.SetItemsProcessed(state.iterations() * kStampedeClients);
  maps::obs::set_metrics_enabled(true);
}
BENCHMARK(BM_ServeObsOff)->Unit(benchmark::kMillisecond);

static void BM_ServeObsInstrumented(benchmark::State& state) {
  maps::obs::set_metrics_enabled(true);
  const auto registry = serve_registry();
  const auto req = serve_request();
  maps::serve::PredictionService service(registry, stampede_options(true));
  for (auto _ : state) {
    std::vector<maps::runtime::Future<maps::serve::ServeResponse>> futures;
    futures.reserve(kStampedeClients);
    for (int k = 0; k < kStampedeClients; ++k) {
      maps::serve::ServeRequest traced = req;
      traced.trace = std::make_shared<maps::obs::Trace>();
      futures.push_back(service.submit(std::move(traced)));
    }
    double checksum = 0.0;
    for (auto& f : futures) checksum += f.get().latency_ms;
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * kStampedeClients);
}
BENCHMARK(BM_ServeObsInstrumented)->Unit(benchmark::kMillisecond);

namespace {

// ------------------------------------------------------ HTTP keep-alive RTT
//
// One persistent HTTP/1.1 connection issuing small /predict requests
// back-to-back. The result cache answers every repeat, so the measured cost
// is the front end itself: event-loop dispatch, incremental parse, worker
// hand-off and the in-order reply write.

int bench_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads one Content-Length-framed response off `fd` into `scratch`; false
/// on a lost connection or any status other than 200.
bool bench_read_reply(int fd, std::string& scratch) {
  scratch.clear();
  char buf[4096];
  std::size_t body_at = std::string::npos;
  std::size_t content_length = 0;
  for (;;) {
    if (body_at == std::string::npos) {
      const auto head_end = scratch.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        if (scratch.rfind("HTTP/1.1 200 ", 0) != 0) return false;
        const auto cl = scratch.find("Content-Length: ");
        if (cl == std::string::npos || cl > head_end) return false;
        content_length = static_cast<std::size_t>(
            std::atoll(scratch.c_str() + cl + 16));
        body_at = head_end + 4;
      }
    }
    if (body_at != std::string::npos &&
        scratch.size() >= body_at + content_length) {
      return true;
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return false;
    scratch.append(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace

static void BM_ServeHttpKeepAlive(benchmark::State& state) {
  const auto registry = serve_registry();
  maps::serve::ServeOptions options;
  options.workers = 2;
  options.cache_capacity = 64;  // repeats are cache hits: front-end cost only
  maps::serve::PredictionService service(registry, options);
  const maps::serve::WireDefaults defaults;

  std::atomic<bool> stop{false};
  std::atomic<int> port{0};
  maps::serve::HttpOptions http;
  http.stream.stop = &stop;
  std::thread server([&] {
    maps::serve::serve_http(service, defaults, http, nullptr, &port);
  });
  while (port.load() == 0) std::this_thread::yield();
  const int fd = bench_connect(port.load());

  // One wire body, reused: a kServeGrid x kServeGrid eps map, summary-only reply.
  std::ostringstream body;
  body << "{\"nx\": " << kServeGrid << ", \"ny\": " << kServeGrid
       << ", \"dl\": " << (6.4 / static_cast<double>(kServeGrid))
       << ", \"return_field\": false, \"eps\": [";
  {
    const auto req = serve_request();
    for (index_t n = 0; n < req.eps.size(); ++n) {
      body << (n == 0 ? "" : ",") << req.eps[n];
    }
  }
  body << "]}";
  std::ostringstream wire;
  wire << "POST /v1/predict HTTP/1.1\r\nHost: bench\r\nContent-Length: "
       << body.str().size() << "\r\n\r\n" << body.str();
  const std::string request = wire.str();

  std::string scratch;
  bool alive = fd >= 0;
  for (auto _ : state) {
    alive = alive &&
            ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
                static_cast<ssize_t>(request.size()) &&
            bench_read_reply(fd, scratch);
    if (!alive) state.SkipWithError("http request failed or answered non-200");
  }
  if (fd >= 0) ::close(fd);
  stop.store(true);
  server.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeHttpKeepAlive)->Unit(benchmark::kMillisecond);

static void BM_FnoInference(benchmark::State& state) {
  // The served surrogate (nn::ModelConfig defaults) the way a serve worker
  // runs it: infer() on one thread, with nested parallel_for serial. Like
  // BM_FdfdFullSolve (one right-hand side, one thread), so their ratio is
  // the fidelity axis's surrogate-vs-exact cost ordering, which the CI perf
  // gate tracks at 64 as fdfd_full_vs_fno_infer_64.
  const index_t n = state.range(0);
  const auto model = nn::make_model(nn::ModelConfig{});
  nn::Tensor x({1, 4, n, n});
  math::Rng rng(13);
  for (index_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.uniform());
  const math::ScopedWorkerThread serial;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->infer(x));
  }
}
BENCHMARK(BM_FnoInference)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

static void BM_FnoInferenceBatch8(benchmark::State& state) {
  // Surrogates amortize further across batched queries.
  const index_t n = state.range(0);
  auto model = nn::make_model(bench::field_model_config(nn::ModelKind::Fno));
  nn::Tensor x({8, 4, n, n});
  math::Rng rng(13);
  for (index_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->forward(x));
  }
}
BENCHMARK(BM_FnoInferenceBatch8)->Arg(64)->Unit(benchmark::kMillisecond);
