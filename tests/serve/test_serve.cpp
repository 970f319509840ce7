// PredictionService: cache tier, surrogate tier, solver escalation tier.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fdfd/simulation.hpp"
#include "fdfd/source.hpp"
#include "math/rng.hpp"
#include "obs/metrics.hpp"
#include "runtime/fault.hpp"
#include "serve/service.hpp"

namespace {

using namespace maps;
namespace fault = maps::runtime::fault;

constexpr index_t kN = 16;

// Arms exactly `spec` for the test's scope (clearing anything the chaos CI
// leg armed through MAPS_FAULTS), then restores the environment's spec.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    fault::disarm_all();
    if (!spec.empty()) fault::arm_from_spec(spec);
  }
  ~FaultGuard() {
    fault::disarm_all();
    if (const char* env = std::getenv("MAPS_FAULTS")) {
      if (env[0] != '\0') fault::arm_from_spec(env);
    }
  }
};

std::uint64_t hits_of(const std::string& name) {
  for (const auto& p : fault::stats()) {
    if (p.name == name) return p.hits;
  }
  return 0;
}

nn::ModelConfig tiny_model_config() {
  nn::ModelConfig cfg;
  cfg.kind = nn::ModelKind::Fno;
  cfg.in_channels = 4;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.modes = 2;
  cfg.depth = 1;
  return cfg;
}

std::shared_ptr<serve::ModelRegistry> tiny_registry() {
  auto registry = std::make_shared<serve::ModelRegistry>();
  const auto cfg = tiny_model_config();
  registry->install("tiny-fno", cfg, nn::make_model(cfg));
  return registry;
}

serve::ServeRequest make_request_sized(index_t n, unsigned seed,
                                       solver::FidelityLevel fidelity =
                                           solver::FidelityLevel::Low) {
  serve::ServeRequest req;
  req.spec = grid::GridSpec{n, n, 6.4 / static_cast<double>(n)};
  math::Rng rng(seed);
  math::RealGrid eps(n, n, 2.07);
  for (index_t j = n / 4; j < 3 * n / 4; ++j) {
    for (index_t i = n / 4; i < 3 * n / 4; ++i) {
      eps(i, j) = 2.07 + 10.0 * rng.uniform();
    }
  }
  req.eps = std::move(eps);
  req.J = fdfd::point_source(req.spec, n / 4, n / 2);
  req.omega = omega_of_wavelength(1.55);
  req.pml.ncells = 3;
  req.fidelity = fidelity;
  return req;
}

serve::ServeRequest make_request(unsigned seed,
                                 solver::FidelityLevel fidelity =
                                     solver::FidelityLevel::Low) {
  return make_request_sized(kN, seed, fidelity);
}

bool fields_bit_identical(const math::CplxGrid& a, const math::CplxGrid& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.size()) * sizeof(cplx)) == 0;
}

TEST(PredictionService, ConcurrentRepliesBitIdenticalToSequential) {
  // Every miss is its own forward on a TaskQueue worker: replies computed
  // concurrently on two workers match one-at-a-time replies bit for bit,
  // across grid sizes (the FNO is resolution-agnostic).
  const auto registry = tiny_registry();

  serve::ServeOptions sequential;
  sequential.workers = 1;
  sequential.cache_capacity = 0;
  serve::PredictionService one(registry, sequential);

  serve::ServeOptions concurrent;
  concurrent.workers = 2;
  concurrent.cache_capacity = 0;
  serve::PredictionService many(registry, concurrent);

  std::vector<serve::ServeRequest> requests;
  for (unsigned k = 0; k < 8; ++k) requests.push_back(make_request(100 + k));
  for (unsigned k = 0; k < 8; ++k) {
    requests.push_back(make_request_sized(k % 2 == 0 ? kN : 2 * kN, 300 + k));
  }

  std::vector<math::CplxGrid> expected;
  for (const auto& req : requests) expected.push_back(one.predict(req).Ez);

  // The armed no-op fault point counts forwards: one per distinct miss.
  FaultGuard guard("surrogate.forward=stall:0");
  std::vector<runtime::Future<serve::ServeResponse>> futures;
  for (const auto& req : requests) futures.push_back(many.submit(req));
  for (std::size_t k = 0; k < futures.size(); ++k) {
    const auto response = futures[k].get();
    EXPECT_EQ(response.source, serve::ResponseSource::Surrogate);
    EXPECT_TRUE(fields_bit_identical(response.Ez, expected[k])) << "request " << k;
  }
  EXPECT_EQ(hits_of("surrogate.forward"), requests.size());
  EXPECT_EQ(many.stats()[serve::ServeCounter::SurrogateRequests], requests.size());
}

TEST(PredictionService, CacheHitServedWithoutRerunningModel) {
  const auto registry = tiny_registry();
  serve::ServeOptions options;
  options.workers = 1;
  serve::PredictionService service(registry, options);

  const auto req = make_request(7);
  const auto first = service.predict(req);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.source, serve::ResponseSource::Surrogate);
  const auto runs_after_first = service.stats()[serve::ServeCounter::SurrogateRequests];

  const auto second = service.predict(req);
  EXPECT_TRUE(second.cache_hit);
  // Cache hits report the tier that produced the answer.
  EXPECT_EQ(second.source, serve::ResponseSource::Surrogate);
  EXPECT_TRUE(fields_bit_identical(second.Ez, first.Ez));
  // The model did not run again: no new surrogate dispatch.
  EXPECT_EQ(service.stats()[serve::ServeCounter::SurrogateRequests], runs_after_first);
  EXPECT_EQ(service.stats()[serve::ServeCounter::CacheHits], 1u);

  // A different pattern misses.
  const auto third = service.predict(make_request(8));
  EXPECT_FALSE(third.cache_hit);
}

std::uint64_t factorizations_recorded() {
  return obs::registry().histogram("solver.factorize_ms").snapshot().count;
}

TEST(PredictionService, HighFidelityDispatchesThroughSolverBackend) {
  ASSERT_TRUE(obs::metrics_enabled());
  const auto registry = tiny_registry();
  serve::ServeOptions options;
  options.workers = 1;
  serve::PredictionService service(registry, options);

  const std::uint64_t before = factorizations_recorded();
  const auto req = make_request(21, solver::FidelityLevel::High);
  const auto response = service.predict(req);
  EXPECT_EQ(response.source, serve::ResponseSource::Solver);
  EXPECT_FALSE(response.cache_hit);
  EXPECT_TRUE(response.model_id.empty());

  // The solve factorized the operator once, on a SolverBackend.
  EXPECT_EQ(factorizations_recorded() - before, 1u);
  EXPECT_EQ(service.stats()[serve::ServeCounter::SolverRequests], 1u);

  // ... and agrees with a direct fdfd::Simulation solve at 1e-12.
  fdfd::SimOptions sim_options;
  sim_options.pml = req.pml;
  sim_options.solver = solver::SolverKind::Direct;
  fdfd::Simulation sim(req.spec, req.eps, req.omega, sim_options);
  const auto direct = sim.solve(req.J);
  ASSERT_TRUE(direct.same_shape(response.Ez));
  double num = 0.0, den = 0.0;
  for (index_t n = 0; n < direct.size(); ++n) {
    num += std::norm(direct[n] - response.Ez[n]);
    den += std::norm(direct[n]);
  }
  EXPECT_LT(std::sqrt(num / den), 1e-12);

  // A repeat high-fidelity query is a result-cache hit (no second
  // factorization), still reported solver-grade.
  const std::uint64_t after_reference = factorizations_recorded();
  const auto again = service.predict(req);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.source, serve::ResponseSource::Solver);
  EXPECT_EQ(factorizations_recorded(), after_reference);
}

TEST(PredictionService, SolverRefineCountsSumEverySolveAndNeverDecrease) {
  // Each escalation solve runs on a backend of its own; the service adds
  // that backend's mixed-precision refinement work to its running totals.
  serve::ServeOptions options;
  options.workers = 1;
  options.solver_precision = solver::SolverPrecision::Mixed;
  serve::PredictionService service(tiny_registry(), options);

  std::uint64_t iterations = 0, fallbacks = 0, last_read = 0;
  for (unsigned k = 0; k < 6; ++k) {
    const auto req = make_request(500 + k, solver::FidelityLevel::High);
    EXPECT_EQ(service.predict(req).source, serve::ResponseSource::Solver);
    const std::uint64_t read = service.stats().solver_refine_iterations;
    EXPECT_GE(read, last_read) << "request " << k;
    last_read = read;

    // The same solve on a backend of the test's own.
    fdfd::SimOptions sim_options;
    sim_options.pml = req.pml;
    sim_options.solver = solver::SolverKind::Direct;
    sim_options.precision = solver::SolverPrecision::Mixed;
    fdfd::Simulation sim(req.spec, req.eps, req.omega, sim_options);
    (void)sim.solve(req.J);
    iterations += static_cast<std::uint64_t>(sim.backend().refinement_iteration_count());
    fallbacks += static_cast<std::uint64_t>(sim.backend().refinement_fallback_count());
  }
  EXPECT_GT(iterations, 0u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.solver_refine_iterations, iterations);
  EXPECT_EQ(stats.solver_refine_fallbacks, fallbacks);
}

TEST(PredictionService, SequentialClientIsNeverShed) {
  // A caller whose predict() returned holds no inflight slot: with room for
  // one request, a client that waits for each answer is never shed.
  serve::ServeOptions options;
  options.workers = 1;
  options.max_inflight = 1;
  serve::PredictionService service(tiny_registry(), options);
  for (unsigned k = 0; k < 500; ++k) {
    EXPECT_NO_THROW(service.predict(make_request(1000 + k))) << "request " << k;
  }
  EXPECT_EQ(service.stats()[serve::ServeCounter::Shed], 0u);
  EXPECT_EQ(service.stats()[serve::ServeCounter::SurrogateRequests], 500u);
}

serve::QueryKey spread_key(std::uint64_t i) {
  serve::QueryKey key;
  key.pattern_digest = (i + 1) * 0x9e3779b97f4a7c15ull;  // spread like FNV digests
  key.omega = 1.0;
  return key;
}

TEST(ResultCache, HoldsItsCapacityAndEvictsLeastRecentlyUsedFirst) {
  serve::ResultCache cache(64);
  const auto value = std::make_shared<const serve::CachedResult>();
  for (std::uint64_t i = 0; i < 64; ++i) cache.put(spread_key(i), value);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_NE(cache.get(spread_key(i)), nullptr) << "key " << i;
  }
  EXPECT_EQ(cache.stats().entries, 64u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Recency now runs 0 (oldest) .. 63; a hit on 0 makes 1 the oldest.
  ASSERT_NE(cache.get(spread_key(0)), nullptr);
  cache.put(spread_key(64), value);
  cache.put(spread_key(65), value);
  EXPECT_EQ(cache.get(spread_key(1)), nullptr);
  EXPECT_EQ(cache.get(spread_key(2)), nullptr);
  for (const std::uint64_t i : {0u, 3u, 63u, 64u, 65u}) {
    EXPECT_NE(cache.get(spread_key(i)), nullptr) << "key " << i;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 64u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ResultCache, KeysCompareOmegaBitPatterns) {
  serve::ResultCache cache(4);
  serve::QueryKey plus = spread_key(7), minus = spread_key(7);
  plus.omega = 0.0;
  minus.omega = -0.0;
  cache.put(plus, std::make_shared<const serve::CachedResult>());
  EXPECT_EQ(cache.get(minus), nullptr);
  EXPECT_NE(cache.get(plus), nullptr);
}

TEST(ResultCache, CapacityZeroDisablesWithoutCounting) {
  serve::ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.put(spread_key(0), std::make_shared<const serve::CachedResult>());
  EXPECT_EQ(cache.get(spread_key(0)), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.evictions + stats.entries, 0u);
}

TEST(PredictionService, LowConfidenceEscalatesToSolver) {
  const auto registry = tiny_registry();
  serve::ServeOptions options;
  options.workers = 1;
  // Absurdly tight screen: every surrogate answer is "suspect".
  options.escalate_rms_factor = 1e-9;
  serve::PredictionService service(registry, options);

  const auto req = make_request(33);
  const auto response = service.predict(req);
  EXPECT_TRUE(response.escalated);
  EXPECT_EQ(response.source, serve::ResponseSource::Solver);
  EXPECT_EQ(service.stats()[serve::ServeCounter::Escalations], 1u);

  fdfd::SimOptions sim_options;
  sim_options.pml = req.pml;
  sim_options.solver = solver::SolverKind::Direct;
  fdfd::Simulation sim(req.spec, req.eps, req.omega, sim_options);
  const auto direct = sim.solve(req.J);
  double num = 0.0, den = 0.0;
  for (index_t n = 0; n < direct.size(); ++n) {
    num += std::norm(direct[n] - response.Ez[n]);
    den += std::norm(direct[n]);
  }
  EXPECT_LT(std::sqrt(num / den), 1e-12);

  // The escalated answer was cached: the repeat is a hit, still solver-grade.
  const auto again = service.predict(req);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(service.stats()[serve::ServeCounter::Escalations], 1u);
}

TEST(PredictionService, MediumFidelityUsesIterativeSolverTier) {
  const auto registry = tiny_registry();
  serve::ServeOptions options;
  options.workers = 1;
  serve::PredictionService service(registry, options);

  const auto req = make_request(40, solver::FidelityLevel::Medium);
  const auto response = service.predict(req);
  EXPECT_EQ(response.source, serve::ResponseSource::Solver);

  fdfd::SimOptions sim_options;
  sim_options.pml = req.pml;
  sim_options.solver = solver::SolverKind::Direct;
  fdfd::Simulation sim(req.spec, req.eps, req.omega, sim_options);
  const auto direct = sim.solve(req.J);
  double num = 0.0, den = 0.0;
  for (index_t n = 0; n < direct.size(); ++n) {
    num += std::norm(direct[n] - response.Ez[n]);
    den += std::norm(direct[n]);
  }
  // Iterative tier: agreement to the BiCGSTAB tolerance, not bitwise.
  EXPECT_LT(std::sqrt(num / den), 1e-4);
}

TEST(PredictionService, HotSwapMidQueueDoesNotRetargetQueuedJobs) {
  // A request encoded for model v1 must run on v1's weights even when a
  // hot-swap to v2 lands before its forward; the later request runs on v2.
  // Each task pins the model snapshot taken at submit time.
  const auto registry = std::make_shared<serve::ModelRegistry>();
  auto cfg_v1 = tiny_model_config();
  cfg_v1.seed = 11;
  auto cfg_v2 = tiny_model_config();
  cfg_v2.seed = 22;
  registry->install("v1", cfg_v1, nn::make_model(cfg_v1));

  serve::ServeOptions options;
  options.workers = 1;
  options.cache_capacity = 0;
  serve::PredictionService service(registry, options);
  // v1's forward stalls long enough for the v2 install to land first.
  FaultGuard guard("surrogate.forward=stall:60@nth:1");

  const auto req = make_request(60);
  auto before_swap = service.submit(req);
  registry->install("v2", cfg_v2, nn::make_model(cfg_v2));
  auto after_swap = service.submit(req);

  auto r1 = before_swap.get();
  auto r2 = after_swap.get();
  EXPECT_EQ(r1.model_id, "v1");
  EXPECT_EQ(r1.model_version, 1);
  EXPECT_EQ(r2.model_id, "v2");
  EXPECT_EQ(r2.model_version, 2);
  // Different weights, different answers — and each matches a fresh
  // single-service run pinned to that model.
  EXPECT_FALSE(fields_bit_identical(r1.Ez, r2.Ez));

  const auto fresh_v1 = std::make_shared<serve::ModelRegistry>();
  fresh_v1->install("v1", cfg_v1, nn::make_model(cfg_v1));
  serve::ServeOptions one;
  one.workers = 1;
  one.cache_capacity = 0;
  serve::PredictionService ref(fresh_v1, one);
  EXPECT_TRUE(fields_bit_identical(r1.Ez, ref.predict(req).Ez));
}

TEST(PredictionService, MalformedRequestFailsTheFutureOnly) {
  const auto registry = tiny_registry();
  serve::ServeOptions options;
  options.workers = 1;
  serve::PredictionService service(registry, options);

  auto bad = make_request(50);
  bad.eps = math::RealGrid(kN / 2, kN, 2.0);  // shape mismatch
  auto future = service.submit(std::move(bad));
  EXPECT_THROW(future.get(), MapsError);
  EXPECT_EQ(service.stats()[serve::ServeCounter::Errors], 1u);

  // The service still answers well-formed requests afterwards.
  EXPECT_EQ(service.predict(make_request(51)).source,
            serve::ResponseSource::Surrogate);
}

TEST(PredictionService, CoalescesIdenticalInflightQueries) {
  serve::ServeOptions options;
  options.workers = 1;         // serializes submits: exactly one leader
  options.cache_capacity = 0;  // every request is a cache miss
  options.coalesce = true;
  serve::PredictionService service(tiny_registry(), options);
  // The leader's forward stalls while the racers arrive and attach.
  FaultGuard guard("surrogate.forward=stall:150@nth:1");

  constexpr int kRacers = 6;
  std::vector<runtime::Future<serve::ServeResponse>> futures;
  for (int k = 0; k < kRacers; ++k) {
    futures.push_back(service.submit(make_request(60)));  // identical query
  }
  futures.push_back(service.submit(make_request(61)));  // distinct: own work

  const auto first = futures.front().get();
  for (int k = 1; k < kRacers; ++k) {
    const auto racer = futures[static_cast<std::size_t>(k)].get();
    EXPECT_TRUE(fields_bit_identical(first.Ez, racer.Ez));
    EXPECT_GE(racer.latency_ms, 0.0);  // billed its own wait, not the leader's
  }
  EXPECT_FALSE(
      fields_bit_identical(first.Ez, futures.back().get().Ez));

  const auto stats = service.stats();
  // The surrogate ran for the two distinct patterns only.
  EXPECT_EQ(hits_of("surrogate.forward"), 2u);
  EXPECT_EQ(stats[serve::ServeCounter::SurrogateRequests], 2u);
  EXPECT_EQ(stats[serve::ServeCounter::Coalesced], static_cast<std::uint64_t>(kRacers - 1));
  EXPECT_EQ(stats[serve::ServeCounter::Completed], static_cast<std::uint64_t>(kRacers + 1));
  EXPECT_EQ(stats[serve::ServeCounter::Errors], 0u);
}

TEST(PredictionService, CoalescingDisabledRunsEveryQuery) {
  serve::ServeOptions options;
  options.workers = 1;
  options.cache_capacity = 0;
  options.coalesce = false;
  serve::PredictionService service(tiny_registry(), options);
  // The first forward stalls so the twin arrives while it is in flight.
  FaultGuard guard("surrogate.forward=stall:50@nth:1");

  auto a = service.submit(make_request(70));
  auto b = service.submit(make_request(70));
  EXPECT_TRUE(fields_bit_identical(a.get().Ez, b.get().Ez));
  const auto stats = service.stats();
  EXPECT_EQ(hits_of("surrogate.forward"), 2u);
  EXPECT_EQ(stats[serve::ServeCounter::Coalesced], 0u);
}

}  // namespace
