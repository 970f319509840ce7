// Observability through the serving pipeline: trace propagation across the
// cache / surrogate / solver tiers, coalesced-waiter span adoption, the
// slow-request span-tree dump and the /stats latency block.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fdfd/source.hpp"
#include "io/json.hpp"
#include "math/rng.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/fault.hpp"
#include "serve/wire.hpp"

namespace {

using namespace maps;
namespace fault = maps::runtime::fault;

constexpr index_t kN = 16;

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

std::shared_ptr<serve::ModelRegistry> tiny_registry() {
  nn::ModelConfig cfg;
  cfg.kind = nn::ModelKind::Fno;
  cfg.in_channels = 4;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.modes = 2;
  cfg.depth = 1;
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->install("tiny-fno", cfg, nn::make_model(cfg));
  return registry;
}

serve::ServeRequest make_request(unsigned seed) {
  serve::ServeRequest req;
  req.spec = grid::GridSpec{kN, kN, 6.4 / static_cast<double>(kN)};
  math::Rng rng(seed);
  math::RealGrid eps(kN, kN, 2.07);
  for (index_t j = kN / 4; j < 3 * kN / 4; ++j) {
    for (index_t i = kN / 4; i < 3 * kN / 4; ++i) {
      eps(i, j) = 2.07 + 10.0 * rng.uniform();
    }
  }
  req.eps = std::move(eps);
  req.J = fdfd::point_source(req.spec, kN / 4, kN / 2);
  req.omega = omega_of_wavelength(1.55);
  req.pml.ncells = 3;
  req.fidelity = solver::FidelityLevel::Low;
  return req;
}

std::vector<std::string> span_names(const obs::Trace& trace) {
  std::vector<std::string> names;
  for (const auto& s : trace.spans()) names.push_back(s.name);
  return names;
}

/// Index of `name` in `names`, or -1.
int index_of(const std::vector<std::string>& names, const std::string& name) {
  const auto it = std::find(names.begin(), names.end(), name);
  return it == names.end() ? -1 : static_cast<int>(it - names.begin());
}

/// Clears MAPS_SLOW_REQUEST_MS for tests that pin threshold semantics (CI
/// re-runs this suite with the override armed at 0), restoring it on exit.
struct SlowEnvGuard {
  std::string saved;
  bool had = false;
  SlowEnvGuard() {
    if (const char* env = std::getenv("MAPS_SLOW_REQUEST_MS")) {
      had = true;
      saved = env;
    }
    ::unsetenv("MAPS_SLOW_REQUEST_MS");
  }
  ~SlowEnvGuard() {
    if (had) ::setenv("MAPS_SLOW_REQUEST_MS", saved.c_str(), 1);
  }
};

}  // namespace

TEST(Observability, EscalatedRequestTracesEveryTier) {
  FaultGuard guard("");
  serve::ServeOptions options;
  options.workers = 1;
  options.escalate_rms_factor = 1e-9;  // every surrogate answer escalates
  serve::PredictionService service(tiny_registry(), options);

  serve::ServeRequest req = make_request(33);
  const obs::TracePtr trace = std::make_shared<obs::Trace>("esc-1");
  req.trace = trace;
  auto future = service.submit(std::move(req));
  const auto response = future.get();
  EXPECT_TRUE(response.escalated);

  const auto names = span_names(*trace);
  const int cache = index_of(names, "cache.lookup");
  const int queue = index_of(names, "batch.queue");
  const int forward = index_of(names, "surrogate.forward");
  const int factorize = index_of(names, "solver.factorize");
  const int solve = index_of(names, "solver.solve");
  ASSERT_GE(cache, 0) << "spans: " << names.size();
  ASSERT_GE(queue, 0);
  ASSERT_GE(forward, 0);
  ASSERT_GE(factorize, 0);
  ASSERT_GE(solve, 0);
  // Pipeline order: cache miss, queue wait, surrogate forward, then the
  // escalated solver work.
  EXPECT_LT(cache, queue);
  EXPECT_LT(queue, forward);
  EXPECT_LT(forward, factorize);
  EXPECT_LT(factorize, solve);
}

TEST(Observability, CoalescedWaiterAdoptsLeaderSpans) {
  // The leader's forward stalls while the racers arrive and attach.
  FaultGuard guard("surrogate.forward=stall:150@nth:1");
  serve::ServeOptions options;
  options.workers = 1;         // serializes submits: exactly one leader
  options.cache_capacity = 0;  // every request is a cache miss
  options.coalesce = true;
  serve::PredictionService service(tiny_registry(), options);

  constexpr int kRacers = 4;
  std::vector<obs::TracePtr> traces;
  std::vector<runtime::Future<serve::ServeResponse>> futures;
  for (int k = 0; k < kRacers; ++k) {
    serve::ServeRequest req = make_request(60);  // identical query
    req.trace = std::make_shared<obs::Trace>("racer-" + std::to_string(k));
    traces.push_back(req.trace);
    futures.push_back(service.submit(std::move(req)));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(service.stats()[serve::ServeCounter::Coalesced],
            static_cast<std::uint64_t>(kRacers - 1));

  // Every racer — leader and attached waiters alike — ends up with the one
  // real forward pass in its own trace (waiters adopt the leader's spans).
  for (int k = 0; k < kRacers; ++k) {
    const auto names = span_names(*traces[static_cast<std::size_t>(k)]);
    EXPECT_GE(index_of(names, "surrogate.forward"), 0)
        << "racer " << k << " missing the leader's forward span";
  }
}

TEST(Observability, SlowRequestDumpsExactlyOneSpanTreeLine) {
  FaultGuard guard("surrogate.forward=stall:40");
  serve::ServeOptions options;
  options.workers = 1;
  options.cache_capacity = 0;
  options.slow_request_ms = 20.0;  // the 40ms stall trips it
  serve::PredictionService service(tiny_registry(), options);

  std::ostringstream sink;
  obs::set_log_sink(&sink);
  serve::ServeRequest req = make_request(77);
  req.trace = std::make_shared<obs::Trace>("slow-1");
  service.submit(std::move(req)).get();
  obs::set_log_sink(nullptr);

  // Exactly one NDJSON line, parsable, naming this trace.
  const std::string text = sink.str();
  std::istringstream lines(text);
  std::string line;
  int dumps = 0;
  std::string dump_line;
  while (std::getline(lines, line)) {
    if (line.find("\"slow_request\"") != std::string::npos) {
      ++dumps;
      dump_line = line;
    }
  }
  ASSERT_EQ(dumps, 1) << text;
  const io::JsonValue doc = io::json_parse(dump_line);
  EXPECT_EQ(doc.at("event").as_string(), "slow_request");
  EXPECT_EQ(doc.at("trace").as_string(), "slow-1");
  EXPECT_GE(doc.at("total_ms").as_number(), 20.0);
  EXPECT_EQ(doc.at("outcome").as_string(), "ok");
  EXPECT_FALSE(doc.at("spans").as_array().empty());
}

TEST(Observability, FastRequestsDoNotDump) {
  FaultGuard guard("");
  SlowEnvGuard env_guard;  // the 60 s threshold below must stay in force
  serve::ServeOptions options;
  options.workers = 1;
  options.slow_request_ms = 60000.0;  // armed, but nothing is that slow
  serve::PredictionService service(tiny_registry(), options);

  std::ostringstream sink;
  obs::set_log_sink(&sink);
  serve::ServeRequest req = make_request(78);
  req.trace = std::make_shared<obs::Trace>();
  service.submit(std::move(req)).get();
  obs::set_log_sink(nullptr);
  EXPECT_EQ(sink.str().find("slow_request"), std::string::npos);
}

TEST(Observability, StatsLatencyBlockGatedOnMetrics) {
  FaultGuard guard("");
  serve::ServeOptions options;
  options.workers = 1;
  serve::PredictionService service(tiny_registry(), options);
  service.predict(make_request(90));

  obs::set_metrics_enabled(true);
  const io::JsonValue on = serve::stats_to_json(service.stats());
  ASSERT_TRUE(on.has("latency"));
  // The request total histogram recorded this request.
  ASSERT_TRUE(on.at("latency").has("serve.request.total_ms"));
  const auto& total = on.at("latency").at("serve.request.total_ms");
  EXPECT_GE(total.at("count").as_number(), 1.0);
  EXPECT_GT(total.at("p50_ms").as_number(), 0.0);
  EXPECT_TRUE(total.has("p90_ms"));
  EXPECT_TRUE(total.has("p99_ms"));

  obs::set_metrics_enabled(false);
  const io::JsonValue off = serve::stats_to_json(service.stats());
  EXPECT_FALSE(off.has("latency"));
  obs::set_metrics_enabled(true);
}

TEST(Observability, MetricsTextExposesServeFamilies) {
  FaultGuard guard("");
  serve::ServeOptions options;
  options.workers = 1;
  serve::PredictionService service(tiny_registry(), options);
  service.predict(make_request(91));
  service.predict(make_request(91));  // cache hit

  const std::string text = serve::metrics_text(service);
  EXPECT_NE(text.find("maps_serve_requests_total"), std::string::npos);
  EXPECT_NE(text.find("maps_serve_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("maps_serve_cache_hit_ratio "), std::string::npos);
  EXPECT_NE(text.find("maps_serve_breaker_state{state=\"closed\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("maps_solver_refine_iterations_total"), std::string::npos);
  EXPECT_NE(text.find("maps_serve_request_total_ms_bucket{le="),
            std::string::npos);
  EXPECT_NE(text.find("maps_serve_request_total_ms_p99"), std::string::npos);
}
