// Wire protocol + the stdio front end: request parsing (with a seeded fuzz
// corpus), reply encoding and the ndjson stream loop.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "../json_mutants.hpp"
#include "math/rng.hpp"
#include "runtime/fault.hpp"
#include "serve/server.hpp"

namespace {

using namespace maps;
using io::JsonValue;
namespace fault = maps::runtime::fault;

constexpr index_t kN = 16;

std::shared_ptr<serve::ModelRegistry> tiny_registry() {
  nn::ModelConfig cfg;
  cfg.kind = nn::ModelKind::Fno;
  cfg.in_channels = 4;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.modes = 2;
  cfg.depth = 1;
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->install("wire-fno", cfg, nn::make_model(cfg));
  return registry;
}

std::string request_line(int id, double eps_fill, const std::string& extra = "") {
  std::ostringstream os;
  os << "{\"id\": " << id << ", \"nx\": " << kN << ", \"ny\": " << kN
     << ", \"eps\": [";
  for (index_t n = 0; n < kN * kN; ++n) os << (n == 0 ? "" : ",") << eps_fill;
  os << "]" << extra << "}";
  return os.str();
}

serve::WireDefaults test_defaults() {
  serve::WireDefaults d;
  d.dl = 0.4;
  d.pml.ncells = 3;
  return d;
}

TEST(Wire, ParseAppliesDefaults) {
  const auto doc = io::json_parse(request_line(4, 2.1));
  const auto wire = serve::parse_request(doc, test_defaults());
  EXPECT_EQ(wire.request.spec.nx, kN);
  EXPECT_EQ(wire.request.spec.dl, 0.4);
  EXPECT_DOUBLE_EQ(wire.request.omega, omega_of_wavelength(1.55));
  EXPECT_EQ(wire.request.fidelity, solver::FidelityLevel::Low);
  EXPECT_EQ(wire.request.pml.ncells, 3);
  EXPECT_TRUE(wire.return_field);
  EXPECT_DOUBLE_EQ(wire.request.eps(3, 7), 2.1);
  // Default source: a point at (nx/4, ny/2).
  EXPECT_NE(wire.request.J(kN / 4, kN / 2), cplx{});
}

TEST(Wire, ParseOverridesAndErrors) {
  const auto doc = io::json_parse(request_line(
      1, 2.0,
      ", \"wavelength\": 1.3, \"fidelity\": \"high\", \"return_field\": false, "
      "\"source\": {\"type\": \"point\", \"i\": 2, \"j\": 3}"));
  const auto wire = serve::parse_request(doc, test_defaults());
  EXPECT_DOUBLE_EQ(wire.request.omega, omega_of_wavelength(1.3));
  EXPECT_EQ(wire.request.fidelity, solver::FidelityLevel::High);
  EXPECT_FALSE(wire.return_field);
  EXPECT_NE(wire.request.J(2, 3), cplx{});

  // eps length mismatch
  EXPECT_THROW(serve::parse_request(
                   io::json_parse("{\"nx\": 4, \"ny\": 4, \"eps\": [1, 2]}"),
                   test_defaults()),
               MapsError);
  // unknown fidelity spelling
  EXPECT_THROW(serve::parse_request(io::json_parse(request_line(
                                        1, 2.0, ", \"fidelity\": \"turbo\"")),
                                    test_defaults()),
               MapsError);
  // out-of-grid point source
  EXPECT_THROW(
      serve::parse_request(
          io::json_parse(request_line(
              1, 2.0, ", \"source\": {\"type\": \"point\", \"i\": 99, \"j\": 0}")),
          test_defaults()),
      MapsError);
}

TEST(Wire, ParseRejectsShapeWhoseCellCountOverflows) {
  // 2^32 * 2^32 wraps index_t to 0: a shape check by multiplication would
  // let an empty eps through to a point source written outside a zero-size
  // grid.
  EXPECT_THROW(serve::parse_request(
                   io::json_parse(
                       R"({"id":1,"nx":4294967296,"ny":4294967296,"eps":[]})"),
                   test_defaults()),
               MapsError);
  EXPECT_THROW(serve::parse_request(
                   io::json_parse(R"({"nx":4294967296,"ny":1,"eps":[1]})"),
                   test_defaults()),
               MapsError);
}

TEST(Wire, ServeStreamAnswersInOrderAndSurvivesBadLines) {
  serve::PredictionService service(tiny_registry(), [] {
    serve::ServeOptions o;
    o.workers = 1;
    return o;
  }());

  std::ostringstream input;
  input << request_line(1, 2.0) << "\n"
        << "this is not json\n"
        << request_line(2, 3.0, ", \"return_field\": false") << "\n"
        << request_line(3, 2.0) << "\n";  // same pattern as id 1: cache hit
  std::istringstream in(input.str());
  std::ostringstream out;
  const auto report = serve::serve_stream(service, test_defaults(), in, out);
  EXPECT_EQ(report.requests, 4u);
  EXPECT_EQ(report.errors, 1u);

  std::istringstream replies(out.str());
  std::string line;
  std::vector<JsonValue> docs;
  while (std::getline(replies, line)) docs.push_back(io::json_parse(line));
  ASSERT_EQ(docs.size(), 4u);

  EXPECT_TRUE(docs[0].at("ok").as_bool());
  EXPECT_EQ(docs[0].at("id").as_int(), 1);
  EXPECT_TRUE(docs[0].has("field"));
  EXPECT_EQ(docs[0].at("field").at("re").size(), static_cast<std::size_t>(kN * kN));

  EXPECT_FALSE(docs[1].at("ok").as_bool());  // the malformed line, in order
  EXPECT_TRUE(docs[1].has("error"));

  EXPECT_TRUE(docs[2].at("ok").as_bool());
  EXPECT_EQ(docs[2].at("id").as_int(), 2);
  EXPECT_FALSE(docs[2].has("field"));  // return_field: false

  EXPECT_TRUE(docs[3].at("ok").as_bool());
  EXPECT_EQ(docs[3].at("id").as_int(), 3);

  const auto stats = serve::stats_to_json(service.stats());
  EXPECT_EQ(stats.at("requests").as_int(), 3);  // the bad line never reached it
}

TEST(Wire, ParseDeadline) {
  const auto wire = serve::parse_request(
      io::json_parse(request_line(1, 2.0, ", \"deadline_ms\": 250")),
      test_defaults());
  EXPECT_DOUBLE_EQ(wire.request.deadline_ms, 250.0);
  // Omitted: no budget.
  EXPECT_DOUBLE_EQ(serve::parse_request(io::json_parse(request_line(1, 2.0)),
                                        test_defaults())
                       .request.deadline_ms,
                   0.0);
  // A deadline must be a positive finite number.
  for (const char* bad : {", \"deadline_ms\": 0", ", \"deadline_ms\": -5",
                          ", \"deadline_ms\": \"soon\""}) {
    EXPECT_THROW(serve::parse_request(io::json_parse(request_line(1, 2.0, bad)),
                                      test_defaults()),
                 MapsError)
        << bad;
  }
}

TEST(Wire, EncodeResponseCarriesDegradedFlag) {
  serve::ServeResponse response;
  response.Ez = math::CplxGrid(2, 2);
  response.degraded = true;
  const auto v = serve::encode_response(JsonValue(7), response,
                                        /*return_field=*/false);
  EXPECT_TRUE(v.at("ok").as_bool());
  EXPECT_TRUE(v.at("degraded").as_bool());
  response.degraded = false;
  EXPECT_FALSE(serve::encode_response(JsonValue(7), response, false)
                   .at("degraded")
                   .as_bool());
}

TEST(Wire, NonFiniteFieldValuesEncodeAsNull) {
  // A degraded surrogate answer can carry non-finite cells; the reply must
  // still be JSON any client can parse.
  serve::ServeResponse response;
  response.Ez = math::CplxGrid(2, 2);
  response.Ez[0] = cplx{1.5, -0.25};
  response.Ez[1] = cplx{std::nan(""), 0.5};
  response.Ez[2] = cplx{2.0, HUGE_VAL};
  response.degraded = true;
  const auto doc = io::json_parse(
      serve::encode_response_text(JsonValue(7), response, /*return_field=*/true));
  const auto& re = doc.at("field").at("re");
  const auto& im = doc.at("field").at("im");
  EXPECT_TRUE(re.at(1).is_null());
  EXPECT_TRUE(im.at(2).is_null());
  EXPECT_TRUE(doc.at("rms").is_null());
  EXPECT_EQ(re.at(0).as_number(), 1.5);
  EXPECT_EQ(im.at(0).as_number(), -0.25);
  EXPECT_EQ(re.at(2).as_number(), 2.0);
  EXPECT_TRUE(doc.at("degraded").as_bool());
}

TEST(Wire, ClassifyErrorMapsExceptionsToCodes) {
  const auto classify = [](std::exception_ptr e) {
    return serve::classify_error(e);
  };
  const auto overloaded = classify(std::make_exception_ptr(
      serve::OverloadedError("serve: overloaded", 12.5)));
  EXPECT_EQ(overloaded.code, "overloaded");
  EXPECT_DOUBLE_EQ(overloaded.retry_after_ms, 12.5);
  EXPECT_EQ(classify(std::make_exception_ptr(
                         runtime::DeadlineExceeded("deadline exceeded")))
                .code,
            "deadline_exceeded");
  EXPECT_EQ(classify(std::make_exception_ptr(
                         serve::BreakerOpenError("breaker open")))
                .code,
            "breaker_open");
  EXPECT_EQ(classify(std::make_exception_ptr(std::runtime_error("boom"))).code,
            "internal");
}

TEST(Wire, EncodeErrorEmitsCodeAndRetryHint) {
  serve::WireError err;
  err.code = "overloaded";
  err.message = "pipeline saturated";
  err.retry_after_ms = 40.0;
  const auto v = serve::encode_error(JsonValue(3), err);
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("id").as_int(), 3);
  EXPECT_EQ(v.at("error").at("code").as_string(), "overloaded");
  EXPECT_EQ(v.at("error").at("message").as_string(), "pipeline saturated");
  EXPECT_DOUBLE_EQ(v.at("error").at("retry_after_ms").as_number(), 40.0);

  // retry_after_ms is omitted when there is no hint; the string overload is
  // the parse-site convenience with code "bad_request".
  err.retry_after_ms = 0.0;
  EXPECT_FALSE(serve::encode_error(JsonValue(3), err).at("error").has("retry_after_ms"));
  const auto bad = serve::encode_error(JsonValue(), "no eps");
  EXPECT_EQ(bad.at("error").at("code").as_string(), "bad_request");
}

TEST(Wire, StreamingEncodersBitIdenticalToDump) {
  // The serve front ends emit replies through the io::json streaming writer;
  // these pins guarantee a client diffing old and new replies sees nothing.
  serve::ServeResponse response;
  response.Ez = math::CplxGrid(3, 2);
  math::Rng rng(42);
  for (index_t n = 0; n < response.Ez.size(); ++n) {
    // Mixed magnitudes exercise the number formatter (exponents, negatives).
    response.Ez[n] = cplx{(rng.uniform() - 0.5) * std::pow(10.0, n - 3.0),
                          rng.uniform() * 1e6};
  }
  response.source = serve::ResponseSource::Surrogate;
  response.cache_hit = true;
  response.escalated = true;
  response.latency_ms = 1.0 / 3.0;

  for (const bool return_field : {true, false}) {
    // Without a model block (pure solver answer) ...
    EXPECT_EQ(serve::encode_response_text(JsonValue(7), response, return_field),
              serve::encode_response(JsonValue(7), response, return_field).dump())
        << "return_field=" << return_field;
    // ... and with one; a null id exercises the omitted-id spelling.
    serve::ServeResponse with_model = response;
    with_model.model_id = "tiny \"quoted\" fno";
    with_model.model_version = 3;
    EXPECT_EQ(
        serve::encode_response_text(JsonValue(), with_model, return_field),
        serve::encode_response(JsonValue(), with_model, return_field).dump())
        << "return_field=" << return_field;
  }

  serve::WireError err;
  err.code = "overloaded";
  err.message = "pipeline \\ saturated\n";
  err.retry_after_ms = 12.5;
  EXPECT_EQ(serve::encode_error_text(JsonValue(3), err),
            serve::encode_error(JsonValue(3), err).dump());
  err.retry_after_ms = 0.0;  // hint omitted
  EXPECT_EQ(serve::encode_error_text(JsonValue("req-9"), err),
            serve::encode_error(JsonValue("req-9"), err).dump());
}

TEST(Wire, FuzzedRequestsParseOrThrowMapsError) {
  // The JSON fuzz corpus, carried one layer further: every mutant that
  // parses re-parses from its dump() to an equal value, and every parsed
  // object goes through parse_request, which either builds a request or
  // throws MapsError.
  std::size_t parsed = 0, accepted = 0, rejected = 0;
  std::uint64_t seed = 101;
  const auto defaults = test_defaults();
  for (const std::string& doc : test::json_seed_documents()) {
    for (const std::string& m : test::json_mutants(doc, 2500, seed++)) {
      JsonValue v;
      try {
        v = io::json_parse(m);
      } catch (const MapsError&) {
        continue;
      }
      ++parsed;
      JsonValue back;
      ASSERT_NO_THROW(back = io::json_parse(v.dump())) << m;
      EXPECT_TRUE(back == v) << m;
      if (!v.is_object()) continue;
      try {
        serve::parse_request(v, defaults);
        ++accepted;
      } catch (const MapsError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "non-MapsError " << e.what() << " on: " << m;
      }
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Wire, StatsJsonCarriesReliabilityBlock) {
  serve::ServeStatsSnapshot stats;
  stats[serve::ServeCounter::Shed] = 2;
  stats[serve::ServeCounter::DeadlineExceeded] = 3;
  stats[serve::ServeCounter::DegradedServed] = 4;
  stats[serve::ServeCounter::SurrogateRetries] = 5;
  stats[serve::ServeCounter::SolverFailovers] = 1;
  stats[serve::ServeCounter::Completed] = 7;
  stats.breaker.state = serve::BreakerState::Open;
  stats.breaker.open_total = 1;
  stats.breaker.rejected = 6;
  const auto v = serve::stats_to_json(stats);
  EXPECT_EQ(v.at("shed").as_int(), 2);
  EXPECT_EQ(v.at("deadline_exceeded").as_int(), 3);
  EXPECT_EQ(v.at("degraded_served").as_int(), 4);
  EXPECT_EQ(v.at("surrogate_retries").as_int(), 5);
  EXPECT_EQ(v.at("solver_failovers").as_int(), 1);
  EXPECT_EQ(v.at("completed").as_int(), 7);
  EXPECT_EQ(v.at("breaker").at("state").as_string(), "open");
  EXPECT_EQ(v.at("breaker").at("open_total").as_int(), 1);
  EXPECT_EQ(v.at("breaker").at("rejected").as_int(), 6);
  // The per-point fault block appears only when the harness is armed.
  maps::runtime::fault::disarm_all();
  EXPECT_FALSE(serve::stats_to_json(stats).has("faults"));
  maps::runtime::fault::arm_from_spec("wire.test.point=throw@nth:99");
  EXPECT_TRUE(serve::stats_to_json(stats).has("faults"));
  maps::runtime::fault::disarm_all();
  if (const char* env = std::getenv("MAPS_FAULTS")) {
    if (env[0] != '\0') maps::runtime::fault::arm_from_spec(env);
  }
}

TEST(Wire, StatsJsonCarriesJobsBlockWhenMounted) {
  const serve::ServeStatsSnapshot stats;
  // Without a job manager the block is absent — its presence is the
  // "jobs API mounted" signal for operators.
  EXPECT_FALSE(serve::stats_to_json(stats).has("jobs"));

  serve::JobsStatsSnapshot jobs;
  jobs[serve::JobsCounter::Submitted] = 5;
  jobs[serve::JobsCounter::Completed] = 2;
  jobs[serve::JobsCounter::Failed] = 1;
  jobs[serve::JobsCounter::Cancelled] = 1;
  jobs[serve::JobsCounter::Resumed] = 1;
  jobs[serve::JobsCounter::Shed] = 3;
  jobs[serve::JobsCounter::Steps] = 40;
  jobs[serve::JobsCounter::JournalRetries] = 4;
  jobs.running = 1;
  jobs.queued = 2;
  const auto v = serve::stats_to_json(stats, &jobs);
  EXPECT_EQ(v.at("jobs").at("submitted").as_int(), 5);
  EXPECT_EQ(v.at("jobs").at("completed").as_int(), 2);
  EXPECT_EQ(v.at("jobs").at("failed").as_int(), 1);
  EXPECT_EQ(v.at("jobs").at("cancelled").as_int(), 1);
  EXPECT_EQ(v.at("jobs").at("resumed").as_int(), 1);
  EXPECT_EQ(v.at("jobs").at("shed").as_int(), 3);
  EXPECT_EQ(v.at("jobs").at("steps").as_int(), 40);
  EXPECT_EQ(v.at("jobs").at("journal_retries").as_int(), 4);
  EXPECT_EQ(v.at("jobs").at("running").as_int(), 1);
  EXPECT_EQ(v.at("jobs").at("queued").as_int(), 2);
}

TEST(Wire, MetricsPageCarriesEveryStatsNumber) {
  // /v1/stats and /v1/metrics render the same numbers. Naming rule: the
  // key `x` of the top level is maps_serve_x_total (a counter) or
  // maps_serve_x (a gauge), of the "breaker" block maps_serve_breaker_x
  // [_total], of the "jobs" block maps_jobs_x[_total]. Exceptions:
  // cache_hit_rate is maps_serve_cache_hit_ratio, solver_refine_x is
  // maps_solver_refine_x_total, and breaker.open_total keeps its name.
  fault::disarm_all();
  serve::ServeOptions options;
  options.workers = 1;
  options.max_inflight = 1;
  serve::PredictionService service(tiny_registry(), options);
  runtime::TaskQueue queue(1);
  serve::JobManager jobs(queue);

  const auto request = [](double fill) {
    return serve::parse_request(io::json_parse(request_line(0, fill)),
                                test_defaults())
        .request;
  };
  // A miss that holds the only inflight slot, a request shed meanwhile, and
  // a hit (hits bypass admission, so the miss's slot release cannot race it).
  fault::arm_from_spec("surrogate.forward=stall:150");
  auto miss = service.submit(request(2.0));
  EXPECT_THROW(service.predict(request(3.0)), serve::OverloadedError);
  EXPECT_FALSE(miss.get().cache_hit);
  fault::disarm_all();
  EXPECT_TRUE(service.predict(request(2.0)).cache_hit);
  io::JsonValue spec;
  spec["type"] = "invdes";
  spec["iterations"] = 1;
  const std::string id = jobs.submit(spec);
  std::string state;
  while ((state = jobs.status(id).at("state").as_string()) == "queued" ||
         state == "running") {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(state, "done");

  const serve::JobsStatsSnapshot snapshot = jobs.stats();
  const JsonValue doc = serve::stats_to_json(service.stats(), &snapshot);
  std::map<std::string, double> samples;
  std::map<std::string, std::string> types;
  std::istringstream page(serve::metrics_text(service, &jobs));
  for (std::string line; std::getline(page, line);) {
    std::istringstream fields(line);
    std::string first, name, type;
    fields >> first;
    if (first == "#") {
      fields >> type >> name >> type;
      types[name] = type;
    } else {
      samples[first] = std::stod(line.substr(line.rfind(' ') + 1));
    }
  }
  const auto family = [&samples](const std::string& prefix, const std::string& key) {
    const bool top = prefix == "maps_serve_";
    if (top && key == "cache_hit_rate") return prefix + "cache_hit_ratio";
    if (top && key.rfind("solver_refine_", 0) == 0) return "maps_" + key + "_total";
    if (prefix == "maps_serve_breaker_" && key == "open_total") return prefix + key;
    const std::string counter = prefix + key + "_total";
    return samples.count(counter) ? counter : prefix + key;
  };
  std::size_t checked = 0;
  const auto check = [&](const std::string& prefix, const JsonValue& block) {
    for (const auto& [key, value] : block.as_object()) {
      if (!value.is_number()) continue;
      ++checked;
      const std::string name = family(prefix, key);
      EXPECT_TRUE(samples.count(name)) << "no /v1/metrics sample " << name;
      if (!samples.count(name)) continue;
      const double want = value.as_number(), got = samples[name];
      if (types[name] == "counter") {
        EXPECT_EQ(got, want) << name;
      } else {
        EXPECT_EQ(types[name], "gauge") << name;
        EXPECT_LE(std::abs(got - want), 1e-8 * std::abs(want)) << name;
      }
    }
  };
  check("maps_serve_", doc);
  check("maps_serve_breaker_", doc.at("breaker"));
  check("maps_jobs_", doc.at("jobs"));
  EXPECT_EQ(checked, 20u + 5u + 10u);
  EXPECT_EQ(doc.at("cache_hits").as_int(), 1);
  EXPECT_EQ(doc.at("shed").as_int(), 1);
  EXPECT_EQ(doc.at("jobs").at("steps").as_int(), 1);
  if (const char* env = std::getenv("MAPS_FAULTS")) {
    if (env[0] != '\0') fault::arm_from_spec(env);
  }
}

}  // namespace
