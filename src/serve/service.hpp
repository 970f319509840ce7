// PredictionService: the multi-fidelity surrogate serving front end.
//
// One service answers pattern queries (permittivity map + source + frequency
// + fidelity hint) from a three-tier pipeline:
//
//   1. ResultCache     one LRU keyed on (pattern digest, omega, fidelity,
//                      model version) — repeat queries cost a hash lookup,
//                      the model never re-runs;
//   2. Surrogate       each miss at surrogate fidelity is one task on the
//                      service's TaskQueue: a single-sample Module::infer on
//                      the model snapshot taken at submit time (a hot-swap
//                      never retargets a queued request);
//   3. Escalation      `fidelity: high` requests — and surrogate outputs that
//                      fail the confidence screen — run through a private
//                      solver::SolverBackend per request via fdfd::Simulation
//                      (assemble, LDL^T factorize, solve); a repeat
//                      verification is a result-cache hit, not a re-solve.
//
// submit() is asynchronous (returns a runtime::Future); predict() is the
// blocking convenience. Callers are external threads — do not call predict()
// from a TaskQueue worker (it would block a worker on queued work, the
// queue's deadlock rule). Models come from a ModelRegistry and may be
// hot-swapped while the service runs; every response reports the model
// version that produced it.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fdfd/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/deadline.hpp"
#include "runtime/future.hpp"
#include "runtime/task_queue.hpp"
#include "serve/breaker.hpp"
#include "serve/registry.hpp"
#include "serve/result_cache.hpp"

namespace maps::serve {

struct ServeRequest {
  grid::GridSpec spec;        // nx, ny, dl of the query pattern
  maps::math::RealGrid eps;   // permittivity map (nx, ny)
  maps::math::CplxGrid J;     // current source (nx, ny)
  double omega = 0.0;
  fdfd::PmlSpec pml;          // escalation-solve boundary spec
  solver::FidelityLevel fidelity = solver::FidelityLevel::Low;
  /// Latency budget in ms from submit() (0 = none). Past the deadline the
  /// request stops consuming pipeline stages — queue hand-offs, refinement
  /// rounds and Krylov iterations all check — and its future fails with
  /// runtime::DeadlineExceeded ("deadline_exceeded" on the wire).
  double deadline_ms = 0.0;
  /// Trace context created at ingress (null = untraced). The pipeline
  /// records per-stage spans into it (cache lookup, queue wait, surrogate
  /// forward, solver factorize/solve) and the terminal finish()/fail()
  /// emits the span tree as one NDJSON line when the request ran longer
  /// than ServeOptions::slow_request_ms.
  obs::TracePtr trace;
};

/// Thrown by submit() when admission control sheds the request (pipeline
/// saturated). `retry_after_ms` is the service's current backlog estimate.
class OverloadedError : public MapsError {
 public:
  OverloadedError(const std::string& what, double retry_after)
      : MapsError(what), retry_after_ms(retry_after) {}
  double retry_after_ms = 0.0;
};

/// Thrown when the solver tier is required (no surrogate fallback possible)
/// but its circuit breaker is open.
class BreakerOpenError : public MapsError {
 public:
  explicit BreakerOpenError(const std::string& what) : MapsError(what) {}
};

/// The tier that produced the answer. Cache hits keep the producing tier
/// and set ServeResponse::cache_hit instead.
enum class ResponseSource { Surrogate, Solver };

const char* response_source_name(ResponseSource source);

struct ServeResponse {
  maps::math::CplxGrid Ez;
  ResponseSource source = ResponseSource::Surrogate;
  bool cache_hit = false;
  bool escalated = false;   // surrogate answer failed the confidence screen
  /// Best-effort answer served while the solver tier's circuit breaker is
  /// open (or after a failed escalation): the surrogate output is returned
  /// un-verified instead of failing the request. Degraded answers are never
  /// cached, so a recovered solver re-answers the next identical query.
  bool degraded = false;
  std::string model_id;     // empty for pure solver answers
  int model_version = 0;    // 0 for pure solver answers
  double latency_ms = 0.0;
};

struct ServeOptions {
  /// Workers for surrogate forwards and escalation solves; 0 = the shared
  /// process-wide TaskQueue.
  std::size_t workers = 0;

  // Result cache (entries; 0 disables).
  std::size_t cache_capacity = 1024;

  // Escalation policy: a surrogate field whose RMS exceeds
  // escalate_rms_factor * field_scale (or is non-finite) is re-answered by
  // the solver. 0 disables the RMS screen (non-finite always escalates).
  double escalate_rms_factor = 0.0;
  /// Factor precision of the escalation solver tier: Mixed factors in fp32
  /// (half the band bytes of each solve) and refines solves back to double
  /// accuracy.
  solver::SolverPrecision solver_precision = solver::default_solver_precision();

  // In-flight request coalescing (cache-stampede protection). When N
  // identical queries race a cold cache, the first becomes the leader and
  // runs the pipeline once; the other N-1 attach to its in-flight
  // computation and share the answer (each billed its own latency). Attached
  // requests skip admission control — they add no pipeline work. Coalesced
  // waiters inherit the leader's deadline; their own deadline_ms is not
  // enforced while attached.
  bool coalesce = true;

  // Admission control. A request that misses the cache is shed with
  // OverloadedError when more than max_inflight requests are already in the
  // pipeline (0 = unlimited), or when the estimated queue wait alone exceeds
  // max_queue_ms (0 = no wait bound). Shedding at ingress keeps tail latency
  // bounded: a saturated service answers "overloaded + retry_after_ms" in
  // microseconds instead of queueing work it cannot finish in time.
  std::size_t max_inflight = 0;
  double max_queue_ms = 0.0;

  // Solver-escalation circuit breaker. After `breaker_failures` consecutive
  // solver failures/timeouts the breaker opens: escalations short-circuit to
  // degraded surrogate answers (no solver attempts) until a backoff expires,
  // then half-open probes test recovery. 0 disables the breaker.
  int breaker_failures = 5;
  double breaker_backoff_ms = 1000.0;
  double breaker_backoff_max_ms = 30000.0;
  int breaker_half_open_probes = 1;

  // Observability. A traced request whose end-to-end latency exceeds
  // slow_request_ms has its whole span tree written to the obs log sink as
  // one NDJSON line (0 = dump every traced request; negative = disabled).
  // The MAPS_SLOW_REQUEST_MS environment variable overrides this at
  // construction so a test suite can be re-run with the dump path armed.
  double slow_request_ms = -1.0;
};

/// The service's monotone counters, one atomic add per event. Each name in
/// kServeCounterNames is the counter's /v1/stats key; its /v1/metrics family
/// is maps_serve_<name>_total.
enum class ServeCounter : std::size_t {
  Requests,
  CacheHits,
  SurrogateRequests,
  SolverRequests,    // explicit fidelity-high dispatches
  Escalations,       // confidence-screen failures
  Errors,
  Shed,              // rejected by admission control
  DeadlineExceeded,  // failed their latency budget
  DegradedServed,    // un-verified surrogate fallbacks
  SurrogateRetries,  // forwards re-run after a failed first attempt
  SolverFailovers,   // surrogate failures answered by the solver
  Coalesced,         // attached to an identical in-flight query
  Completed,         // requests that produced an answer
  Count
};

inline constexpr const char* kServeCounterNames[] = {
    "requests", "cache_hits", "surrogate_requests", "solver_requests", "escalations",
    "errors", "shed", "deadline_exceeded", "degraded_served", "surrogate_retries",
    "solver_failovers", "coalesced", "completed"};
static_assert(std::size(kServeCounterNames) ==
              static_cast<std::size_t>(ServeCounter::Count));

/// The counters (read by ServeCounter) plus the values other parts keep.
struct ServeStatsSnapshot : obs::Counts<ServeCounter> {
  BreakerStats breaker;                 // solver-tier circuit breaker
  // Mixed-precision accounting of the escalation solver tier (0 under
  // double precision): refinement steps taken and double-factorization
  // fallbacks, summed over every solve this service ran.
  std::uint64_t solver_refine_iterations = 0;
  std::uint64_t solver_refine_fallbacks = 0;
  double total_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  ResultCacheStats cache;
};

class PredictionService {
 public:
  PredictionService(std::shared_ptr<ModelRegistry> registry, ServeOptions options = {});
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  runtime::Future<ServeResponse> submit(ServeRequest request);
  ServeResponse predict(ServeRequest request) { return submit(std::move(request)).get(); }

  ModelRegistry& registry() { return *registry_; }
  const ServeOptions& options() const { return options_; }
  ServeStatsSnapshot stats() const;

  /// The worker pool this service runs on. Front ends offload request
  /// decode/submit work here to keep their I/O threads non-blocking. The
  /// TaskQueue deadlock rule applies: never block on a queued-task future
  /// from one of these workers — use Future::subscribe.
  runtime::TaskQueue& task_queue() { return *queue_; }

  /// Query identity as cached (exposed for tests).
  static QueryKey make_key(const ServeRequest& request, int model_version);

  /// Circuit breaker of the escalation solver tier (exposed for tests).
  const CircuitBreaker& breaker() const { return *breaker_; }

  /// Effective slow-request threshold (config + MAPS_SLOW_REQUEST_MS
  /// override; negative = disabled). Exposed for front ends deciding
  /// whether to allocate a trace at ingress.
  double slow_request_ms() const { return slow_request_ms_; }
  /// True when requests should carry a trace context: metrics are on or
  /// the slow-request dump is armed.
  bool tracing_enabled() const {
    return obs::metrics_enabled() || slow_request_ms_ >= 0.0;
  }

 private:
  /// A request attached to another request's in-flight computation: its
  /// promise is fanned out to at the leader's terminal.
  struct Waiter {
    runtime::Promise<ServeResponse> promise;
    double start_ms = 0.0;
    /// The attacher's own trace: at fan-out it adopts the leader's spans
    /// so each client's slow dump names the work it actually waited on.
    obs::TracePtr trace;
  };

  /// Terminal success path. When `key` is non-null the pending-waiter entry
  /// for it is popped and every attached waiter receives a copy of the
  /// response (with its own latency). Every submitted request ends in
  /// finish() or fail() exactly once. `trace` is the leader's trace (may be
  /// null): finish/fail record the total-latency histogram and emit the
  /// slow-request span dump against it. Both release the inflight slots
  /// before fulfilling any promise, so a caller whose predict() returned no
  /// longer counts against max_inflight; past the release they touch only
  /// the promises (the destructor's drain may already be running).
  void finish(runtime::Promise<ServeResponse>& promise, ServeResponse response,
              double start_ms, const QueryKey* key = nullptr,
              const obs::TracePtr& trace = nullptr);
  /// Terminal error path: classifies `error` into the right counter
  /// (shed / deadline_exceeded / errors), releases the inflight slot and
  /// fails the promise — and every attached waiter when `key` is non-null.
  void fail(runtime::Promise<ServeResponse>& promise, std::exception_ptr error,
            const QueryKey* key = nullptr, const obs::TracePtr& trace = nullptr);
  /// One observed request terminal: total-latency histogram + threshold-
  /// triggered span-tree dump (at most once per trace).
  void observe_terminal(const obs::TracePtr& trace, double total_ms,
                        const char* outcome);
  /// Coalescing: join an identical in-flight computation. True = attached
  /// (the caller's promise is satisfied at the leader's terminal).
  bool attach_pending(const QueryKey& key,
                      const runtime::Promise<ServeResponse>& promise,
                      double start_ms, const obs::TracePtr& trace);
  /// Coalescing: announce this request as the in-flight computation for
  /// `key`. No-op when another leader already holds the slot (the race loser
  /// simply runs its own pipeline and fans out to nobody).
  void lead_pending(const QueryKey& key);
  std::vector<Waiter> take_waiters(const QueryKey* key);
  void record_completion(double latency_ms);
  void admit(const ServeRequest& request);
  double backlog_estimate_ms() const;
  ServeResponse solve_high(const ServeRequest& request);
  /// solve_high under the request's deadline guard and the circuit breaker's
  /// failure accounting.
  ServeResponse solve_guarded(const ServeRequest& request, double deadline_abs_ms);
  /// Encodes the request for `model` and queues one task that runs the
  /// forward, then decodes, screens, escalates or degrades, and ends in
  /// finish() or fail(). Throws only when encoding or the enqueue fails.
  void answer_surrogate(std::shared_ptr<const ServeRequest> request,
                        const std::shared_ptr<const ServedModel>& model,
                        const QueryKey& key, runtime::Promise<ServeResponse> promise,
                        double start_ms, double deadline_abs_ms, bool degraded);

  std::shared_ptr<ModelRegistry> registry_;
  ServeOptions options_;
  std::unique_ptr<runtime::TaskQueue> own_queue_;  // set when options.workers > 0
  runtime::TaskQueue* queue_;
  ResultCache cache_;
  std::unique_ptr<CircuitBreaker> breaker_;
  /// Cached registry refs (stable for the process lifetime) so the hot
  /// path never touches the registry map.
  obs::Histogram* hist_total_ms_ = nullptr;
  obs::Histogram* hist_cache_lookup_ms_ = nullptr;
  obs::Histogram* hist_queue_ms_ = nullptr;
  obs::Histogram* hist_forward_ms_ = nullptr;
  double slow_request_ms_ = -1.0;

  obs::CounterTable<ServeCounter> counters_;
  std::atomic<std::uint64_t> refine_iterations_{0};
  std::atomic<std::uint64_t> refine_fallbacks_{0};
  std::atomic<std::uint64_t> inflight_{0};
  /// In-flight computations by query key; the mapped waiters are the
  /// attached requests fanned out to at the leader's terminal.
  std::mutex pending_mu_;
  std::unordered_map<QueryKey, std::vector<Waiter>, QueryKeyHash> pending_;
  mutable std::mutex latency_mu_;
  double total_latency_ms_ = 0.0;
  double max_latency_ms_ = 0.0;
};

}  // namespace maps::serve
