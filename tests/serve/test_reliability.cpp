// End-to-end reliability layer: per-request deadlines, admission control,
// the solver-escalation circuit breaker with graceful degradation, the
// fault-driven surrogate retry, and the stream hardening (oversized lines,
// mid-JSON EOF, client disconnect mid-reply, shutdown drain).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "fdfd/source.hpp"
#include "math/rng.hpp"
#include "runtime/fault.hpp"
#include "serve/server.hpp"

namespace {

using namespace maps;
namespace fault = maps::runtime::fault;

constexpr index_t kN = 16;

// Pins the fault configuration for one test: clears whatever the chaos CI
// leg armed via MAPS_FAULTS, arms exactly `spec`, and restores the ambient
// spec on exit so later tests still run under the environment's config.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    fault::disarm_all();
    if (!spec.empty()) fault::arm_from_spec(spec);
  }
  ~FaultGuard() { restore(); }
  static void restore() {
    fault::disarm_all();
    if (const char* env = std::getenv("MAPS_FAULTS")) {
      if (env[0] != '\0') fault::arm_from_spec(env);
    }
  }
};

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

serve::ServeRequest make_request(unsigned seed,
                                 solver::FidelityLevel fidelity =
                                     solver::FidelityLevel::Low) {
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
  req.fidelity = fidelity;
  return req;
}

bool fields_bit_identical(const math::CplxGrid& a, const math::CplxGrid& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.size()) * sizeof(cplx)) == 0;
}

serve::ServeOptions small_options() {
  serve::ServeOptions o;
  o.workers = 1;
  o.cache_capacity = 0;
  return o;
}

}  // namespace

// --- deadlines ---------------------------------------------------------------

TEST(Reliability, DeadlineExceededOnStalledForward) {
  FaultGuard guard("surrogate.forward=stall:100");
  serve::PredictionService service(tiny_registry(), small_options());
  auto req = make_request(1);
  req.deadline_ms = 25.0;
  auto future = service.submit(std::move(req));
  EXPECT_THROW(future.get(), maps::runtime::DeadlineExceeded);
  const auto stats = service.stats();
  EXPECT_EQ(stats[serve::ServeCounter::DeadlineExceeded], 1u);
  EXPECT_EQ(stats[serve::ServeCounter::Errors], 0u);  // a blown budget is not an internal error
}

TEST(Reliability, GenerousDeadlinePasses) {
  FaultGuard guard("");
  serve::PredictionService service(tiny_registry(), small_options());
  auto req = make_request(2);
  req.deadline_ms = 60000.0;
  const auto response = service.predict(std::move(req));
  EXPECT_EQ(response.source, serve::ResponseSource::Surrogate);
  EXPECT_EQ(service.stats()[serve::ServeCounter::DeadlineExceeded], 0u);
}

TEST(Reliability, DeadlineCutsOffStalledSolver) {
  FaultGuard guard("solver.factorize=stall:80");
  serve::PredictionService service(tiny_registry(), small_options());
  auto req = make_request(3, solver::FidelityLevel::High);
  req.deadline_ms = 25.0;
  auto future = service.submit(std::move(req));
  EXPECT_THROW(future.get(), maps::runtime::DeadlineExceeded);
  const auto stats = service.stats();
  EXPECT_EQ(stats[serve::ServeCounter::DeadlineExceeded], 1u);
  // One slow solve does not trip the breaker (threshold default 5).
  EXPECT_EQ(stats.breaker.state, serve::BreakerState::Closed);
}

// --- admission control -------------------------------------------------------

TEST(Reliability, AdmissionShedsOverInflightLimit) {
  FaultGuard guard("surrogate.forward=stall:150");
  auto options = small_options();
  options.max_inflight = 1;
  serve::PredictionService service(tiny_registry(), options);

  auto first = service.submit(make_request(10));   // occupies the only slot
  auto second = service.submit(make_request(11));  // shed at ingress
  try {
    second.get();
    FAIL() << "second request should have been shed";
  } catch (const serve::OverloadedError& e) {
    EXPECT_GT(e.retry_after_ms, 0.0);
    EXPECT_NE(std::string(e.what()).find("overloaded"), std::string::npos);
  }
  // The under-limit request still completes normally.
  EXPECT_EQ(first.get().source, serve::ResponseSource::Surrogate);
  const auto stats = service.stats();
  EXPECT_EQ(stats[serve::ServeCounter::Shed], 1u);
  EXPECT_EQ(stats[serve::ServeCounter::Completed], 1u);
  EXPECT_EQ(stats[serve::ServeCounter::Errors], 0u);  // shed is accounted separately
}

TEST(Reliability, CacheHitsBypassAdmission) {
  FaultGuard guard("");
  auto options = small_options();
  options.cache_capacity = 8;
  options.max_inflight = 1;
  serve::PredictionService service(tiny_registry(), options);
  const auto req = make_request(12);
  EXPECT_EQ(service.predict(req).cache_hit, false);
  // Same pattern again: served from cache even at the inflight limit.
  EXPECT_TRUE(service.predict(req).cache_hit);
  EXPECT_EQ(service.stats()[serve::ServeCounter::Shed], 0u);
}

// --- circuit breaker + graceful degradation ----------------------------------

TEST(Reliability, BreakerOpensDegradesAndRecovers) {
  auto options = small_options();
  options.escalate_rms_factor = 1e-12;  // every surrogate answer is "suspect"
  options.breaker_failures = 1;
  options.breaker_backoff_ms = 30.0;
  options.breaker_backoff_max_ms = 1000.0;
  serve::PredictionService service(tiny_registry(), options);

  {
    FaultGuard guard("solver.factorize=throw");
    // Escalation solve fails -> breaker trips -> the suspect surrogate
    // answer is served, tagged degraded, instead of failing the request.
    const auto r1 = service.predict(make_request(20));
    EXPECT_TRUE(r1.degraded);
    EXPECT_EQ(r1.source, serve::ResponseSource::Surrogate);
    EXPECT_EQ(service.breaker().state(), serve::BreakerState::Open);

    // While open: no solver attempt at all, straight to degraded.
    const auto r2 = service.predict(make_request(21));
    EXPECT_TRUE(r2.degraded);
    const auto stats = service.stats();
    EXPECT_EQ(stats[serve::ServeCounter::DegradedServed], 2u);
    EXPECT_EQ(stats.breaker.open_total, 1u);
    EXPECT_GE(stats.breaker.rejected, 1u);
    EXPECT_EQ(stats[serve::ServeCounter::Errors], 0u);
  }
  // Faults disarmed ("the solver recovered"). After the backoff a half-open
  // probe goes through, succeeds, and closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const auto r3 = service.predict(make_request(22));
  EXPECT_FALSE(r3.degraded);
  EXPECT_TRUE(r3.escalated);
  EXPECT_EQ(r3.source, serve::ResponseSource::Solver);
  EXPECT_EQ(service.breaker().state(), serve::BreakerState::Closed);
  EXPECT_EQ(service.stats().breaker.successes, 1u);
}

TEST(Reliability, ExplicitSolverRequestDegradesWhileBreakerOpen) {
  auto options = small_options();
  options.breaker_failures = 1;
  options.breaker_backoff_ms = 10000.0;  // stays open for the whole test
  serve::PredictionService service(tiny_registry(), options);

  FaultGuard guard("solver.factorize=throw");
  // First high-fidelity request fails organically and trips the breaker.
  EXPECT_THROW(service.predict(make_request(30, solver::FidelityLevel::High)),
               fault::FaultInjected);
  EXPECT_EQ(service.breaker().state(), serve::BreakerState::Open);

  // Next solver-fidelity request: served by the surrogate, tagged degraded.
  const auto r = service.predict(make_request(31, solver::FidelityLevel::High));
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.source, serve::ResponseSource::Surrogate);
  EXPECT_EQ(service.stats()[serve::ServeCounter::DegradedServed], 1u);

  // Degraded answers are never cached: nothing for this key.
  EXPECT_EQ(service.stats().cache.entries, 0u);
}

TEST(Reliability, BreakerOpenErrorWithoutSurrogateFallback) {
  auto options = small_options();
  options.breaker_failures = 1;
  options.breaker_backoff_ms = 10000.0;
  // Registry with no model: high-fidelity works, but there is nothing to
  // degrade to once the solver is fenced off.
  serve::PredictionService service(std::make_shared<serve::ModelRegistry>(),
                                   options);

  FaultGuard guard("solver.factorize=throw");
  EXPECT_THROW(service.predict(make_request(40, solver::FidelityLevel::High)),
               fault::FaultInjected);
  EXPECT_THROW(service.predict(make_request(41, solver::FidelityLevel::High)),
               serve::BreakerOpenError);
}

// --- surrogate retry ---------------------------------------------------------

TEST(Reliability, RetryAbsorbsForwardFaults) {
  serve::PredictionService clean(tiny_registry(), small_options());
  std::vector<math::CplxGrid> expected;
  {
    FaultGuard guard("");
    for (unsigned k = 0; k < 3; ++k) {
      expected.push_back(clean.predict(make_request(50 + k)).Ez);
    }
  }

  FaultGuard guard("surrogate.forward=throw");  // every first attempt dies
  serve::PredictionService faulted(tiny_registry(), small_options());
  for (unsigned k = 0; k < 3; ++k) {
    const auto response = faulted.predict(make_request(50 + k));
    EXPECT_EQ(response.source, serve::ResponseSource::Surrogate);
    EXPECT_FALSE(response.degraded);
    // The retry re-runs the same forward: the injected failure is
    // invisible to the caller.
    EXPECT_TRUE(fields_bit_identical(response.Ez, expected[k])) << "request " << k;
  }
  const auto stats = faulted.stats();
  EXPECT_EQ(stats[serve::ServeCounter::SurrogateRetries], 3u);
  EXPECT_EQ(stats[serve::ServeCounter::Errors], 0u);
  EXPECT_EQ(stats[serve::ServeCounter::Completed], 3u);
}

// --- stream hardening --------------------------------------------------------

namespace {

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

std::vector<io::JsonValue> parse_replies(const std::string& text) {
  std::istringstream is(text);
  std::vector<io::JsonValue> docs;
  std::string line;
  while (std::getline(is, line)) docs.push_back(io::json_parse(line));
  return docs;
}

}  // namespace

TEST(Reliability, OversizedLineRejectedSiblingsServed) {
  FaultGuard guard("");
  serve::PredictionService service(tiny_registry(), small_options());
  serve::StreamOptions stream;
  stream.max_request_bytes = 1024;

  std::ostringstream input;
  // ~2 KB line (long eps literals) vs a ~0.6 KB one: same grid, only the
  // first blows the byte limit.
  input << request_line(1, 2.123456) << "\n"
        << request_line(2, 2.0, ", \"return_field\": false") << "\n";
  std::istringstream in(input.str());
  std::ostringstream out;
  const auto report = serve::serve_stream(service, test_defaults(), in, out,
                                          nullptr, stream);
  EXPECT_EQ(report.requests, 2u);
  EXPECT_EQ(report.errors, 1u);

  const auto docs = parse_replies(out.str());
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_FALSE(docs[0].at("ok").as_bool());
  EXPECT_EQ(docs[0].at("error").at("code").as_string(), "request_too_large");
  // The stream stayed line-synchronized: the small sibling is answered.
  EXPECT_TRUE(docs[1].at("ok").as_bool());
  EXPECT_EQ(docs[1].at("id").as_int(), 2);
}

TEST(Reliability, GarbageAndTruncatedRequestsAnswerStructuredErrors) {
  FaultGuard guard("");
  serve::PredictionService service(tiny_registry(), small_options());

  std::ostringstream input;
  input << "complete garbage that is not json\n"
        << request_line(2, 2.0, ", \"return_field\": false") << "\n"
        << "{\"id\": 3, \"nx\": 16, \"ny\": 16, \"eps\": [2.0,";  // EOF mid-JSON
  std::istringstream in(input.str());
  std::ostringstream out;
  const auto report = serve::serve_stream(service, test_defaults(), in, out);
  EXPECT_EQ(report.requests, 3u);
  EXPECT_EQ(report.errors, 2u);

  const auto docs = parse_replies(out.str());
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_FALSE(docs[0].at("ok").as_bool());
  EXPECT_EQ(docs[0].at("error").at("code").as_string(), "bad_request");
  EXPECT_TRUE(docs[1].at("ok").as_bool());  // sibling between bad lines: fine
  EXPECT_FALSE(docs[2].at("ok").as_bool());  // truncated tail: clean error
  EXPECT_EQ(docs[2].at("error").at("code").as_string(), "bad_request");
}

TEST(Reliability, WireDeadlineExceededReply) {
  FaultGuard guard("surrogate.forward=stall:100");
  serve::PredictionService service(tiny_registry(), small_options());
  std::istringstream in(request_line(7, 2.0, ", \"deadline_ms\": 25") + "\n");
  std::ostringstream out;
  serve::serve_stream(service, test_defaults(), in, out);
  const auto docs = parse_replies(out.str());
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_FALSE(docs[0].at("ok").as_bool());
  EXPECT_EQ(docs[0].at("error").at("code").as_string(), "deadline_exceeded");
  EXPECT_EQ(docs[0].at("id").as_int(), 7);
}

TEST(Reliability, StatsRoundTripReliabilityCounters) {
  FaultGuard guard("surrogate.forward=stall:100");
  serve::PredictionService service(tiny_registry(), small_options());
  auto req = make_request(60);
  req.deadline_ms = 25.0;
  EXPECT_THROW(service.submit(std::move(req)).get(),
               maps::runtime::DeadlineExceeded);
  const auto v = serve::stats_to_json(service.stats());
  EXPECT_EQ(v.at("deadline_exceeded").as_int(), 1);
  EXPECT_EQ(v.at("shed").as_int(), 0);
  EXPECT_EQ(v.at("degraded_served").as_int(), 0);
  EXPECT_EQ(v.at("breaker").at("state").as_string(), "closed");
  EXPECT_EQ(v.at("breaker").at("open_total").as_int(), 0);
  // The armed fault point's counters prove the chaos config actually fired.
  ASSERT_TRUE(v.has("faults"));
  EXPECT_GE(v.at("faults").at("surrogate.forward").at("fires").as_int(), 1);
}

TEST(Reliability, PresetStopFlagStopsConsumingInput) {
  FaultGuard guard("");
  serve::PredictionService service(tiny_registry(), small_options());
  std::atomic<bool> stop{true};
  serve::StreamOptions stream;
  stream.stop = &stop;
  std::istringstream in(request_line(1, 2.0) + "\n");
  std::ostringstream out;
  const auto report = serve::serve_stream(service, test_defaults(), in, out,
                                          nullptr, stream);
  EXPECT_EQ(report.requests, 0u);
  EXPECT_TRUE(out.str().empty());
}

TEST(Reliability, ShutdownDrainBoundsStragglersWithShuttingDownReplies) {
  FaultGuard guard("surrogate.forward=stall:400");
  serve::PredictionService service(tiny_registry(), small_options());
  std::atomic<bool> stop{false};
  serve::StreamOptions stream;
  stream.stop = &stop;
  stream.drain_deadline_ms = 100.0;

  std::ostringstream input;
  input << request_line(1, 2.0) << "\n"
        << request_line(2, 3.0) << "\n";
  std::istringstream in(input.str());
  std::ostringstream out;
  // Request the drain while the first reply is still being computed (the
  // writer has long since dequeued it un-stopped, so it completes normally);
  // the second straggler is abandoned at the drain deadline.
  std::thread stopper([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    stop.store(true);
  });
  const auto report = serve::serve_stream(service, test_defaults(), in, out,
                                          nullptr, stream);
  stopper.join();
  EXPECT_EQ(report.requests, 2u);
  const auto docs = parse_replies(out.str());
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_TRUE(docs[0].at("ok").as_bool());
  EXPECT_FALSE(docs[1].at("ok").as_bool());
  EXPECT_EQ(docs[1].at("error").at("code").as_string(), "shutting_down");
}

namespace {

/// A reply sink that takes `budget` bytes and then fails every write: the
/// stream end of a client that disconnects mid-reply.
class FailingSink final : public std::streambuf {
 public:
  explicit FailingSink(std::size_t budget) : budget_(budget) {}
  std::size_t written() const { return written_; }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
    if (written_ == budget_) return traits_type::eof();
    ++written_;
    return ch;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    const auto take = std::min<std::streamsize>(
        n, static_cast<std::streamsize>(budget_ - written_));
    written_ += static_cast<std::size_t>(take);
    return take;
  }

 private:
  std::size_t budget_;
  std::size_t written_ = 0;
};

}  // namespace

TEST(Reliability, ClientDisconnectMidReplyIsLoggedNotFatal) {
  FaultGuard guard("");
  serve::PredictionService service(tiny_registry(), small_options());

  // Five full-field requests (each reply is several KB); the sink dies
  // 4 KB into the first reply.
  std::string burst;
  for (int id = 1; id <= 5; ++id) burst += request_line(id, 2.0 + id) + "\n";
  std::istringstream in(burst);
  FailingSink sink(4096);
  std::ostream out(&sink);
  std::ostringstream log;
  const auto report =
      serve::serve_stream(service, test_defaults(), in, out, &log);

  EXPECT_EQ(sink.written(), 4096u);
  EXPECT_NE(log.str().find("disconnected mid-reply"), std::string::npos);
  // Every reply settled, sent or not: nothing is left in flight.
  EXPECT_EQ(report.requests, 5u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(service.stats()[serve::ServeCounter::Completed], 5u);
}

// --- coalescing under chaos --------------------------------------------------

TEST(Reliability, CoalesceAttachFaultDegradesToDuplicateLeaders) {
  // An armed "coalesce.attach" io fault makes attach_pending report "no
  // in-flight twin": the racer becomes a second leader and the query simply
  // runs twice — correct answers, no stuck waiters, just no dedup. The
  // first forward stalls so the twin arrives while it is in flight.
  FaultGuard guard("coalesce.attach=io;surrogate.forward=stall:50@nth:1");
  serve::ServeOptions options;
  options.workers = 1;
  options.cache_capacity = 0;
  options.coalesce = true;
  serve::PredictionService service(tiny_registry(), options);

  auto a = service.submit(make_request(80));
  auto b = service.submit(make_request(80));
  EXPECT_TRUE(fields_bit_identical(a.get().Ez, b.get().Ez));
  const auto stats = service.stats();
  EXPECT_EQ(stats[serve::ServeCounter::Coalesced], 0u);
  EXPECT_EQ(stats[serve::ServeCounter::SurrogateRequests], 2u);  // both ran the pipeline
  EXPECT_EQ(stats[serve::ServeCounter::Completed], 2u);
  EXPECT_EQ(stats[serve::ServeCounter::Errors], 0u);
}

TEST(Reliability, FailedLeaderFansTheErrorToAttachedWaiters) {
  // When the leader's pipeline fails (here: its deadline blows while the
  // forward stalls), every attached waiter gets the same exception — nobody
  // hangs on an answer that will never come. A forward `throw` would not do:
  // the retry heals it invisibly.
  FaultGuard guard("surrogate.forward=stall:200");
  serve::ServeOptions options;
  options.workers = 1;
  options.cache_capacity = 0;
  options.coalesce = true;
  serve::PredictionService service(tiny_registry(), options);

  auto req = make_request(81);
  req.deadline_ms = 25.0;
  auto leader = service.submit(std::move(req));
  auto twin = make_request(81);
  twin.deadline_ms = 25.0;  // identical query -> same key, attaches
  auto waiter = service.submit(std::move(twin));
  EXPECT_EQ(service.stats()[serve::ServeCounter::Coalesced], 1u);
  EXPECT_THROW(leader.get(), maps::runtime::DeadlineExceeded);
  EXPECT_THROW(waiter.get(), maps::runtime::DeadlineExceeded);
  const auto stats = service.stats();
  EXPECT_EQ(stats[serve::ServeCounter::DeadlineExceeded], 2u);
  EXPECT_EQ(stats[serve::ServeCounter::Errors], 0u);
}
