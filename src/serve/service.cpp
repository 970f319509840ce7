#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "core/train/encoding.hpp"
#include "obs/log.hpp"
#include "runtime/fault.hpp"
#include "solver/cache.hpp"

namespace maps::serve {

namespace {

std::uint64_t fnv_mix(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Service time the admission estimate assumes until the first request
// completes.
constexpr double kColdServiceMs = 3.0;

nn::Tensor encode_request(const ServeRequest& request, const ServedModel& model) {
  nn::Tensor input = maps::train::make_input_batch(1, request.spec.nx,
                                                   request.spec.ny, model.encoding);
  maps::train::encode_input(input, 0, request.eps, request.J, request.omega,
                            request.spec.dl, model.standardizer, model.encoding);
  return input;
}

}  // namespace

const char* response_source_name(ResponseSource source) {
  switch (source) {
    case ResponseSource::Surrogate: return "surrogate";
    case ResponseSource::Solver: return "solver";
  }
  return "?";
}

QueryKey PredictionService::make_key(const ServeRequest& request, int model_version) {
  // Pattern identity: eps bytes, source bytes, geometry and PML — everything
  // that changes the answer besides (omega, fidelity, model), which are key
  // fields of their own.
  std::uint64_t h = solver::digest_grid(request.eps);
  h = fnv_mix(h, request.J.data().data(), request.J.data().size() * sizeof(cplx));
  h = fnv_mix(h, &request.spec.nx, sizeof(request.spec.nx));
  h = fnv_mix(h, &request.spec.ny, sizeof(request.spec.ny));
  h = fnv_mix(h, &request.spec.dl, sizeof(request.spec.dl));
  h = fnv_mix(h, &request.pml.ncells, sizeof(request.pml.ncells));
  h = fnv_mix(h, &request.pml.m, sizeof(request.pml.m));
  h = fnv_mix(h, &request.pml.R0, sizeof(request.pml.R0));
  QueryKey key;
  key.pattern_digest = h;
  key.omega = request.omega;
  key.fidelity = static_cast<int>(request.fidelity);
  key.model_version = model_version;
  return key;
}

PredictionService::PredictionService(std::shared_ptr<ModelRegistry> registry,
                                     ServeOptions options)
    : registry_(std::move(registry)), options_(options),
      cache_(options.cache_capacity) {
  require(registry_ != nullptr, "PredictionService: null registry");
  if (options_.workers > 0) {
    own_queue_ = std::make_unique<runtime::TaskQueue>(options_.workers);
    queue_ = own_queue_.get();
  } else {
    queue_ = &runtime::TaskQueue::shared();
  }
  BreakerOptions bropt;
  bropt.failure_threshold = options_.breaker_failures;
  bropt.backoff_ms = options_.breaker_backoff_ms;
  bropt.backoff_max_ms = options_.breaker_backoff_max_ms;
  bropt.half_open_probes = options_.breaker_half_open_probes;
  breaker_ = std::make_unique<CircuitBreaker>(bropt);
  hist_total_ms_ = &obs::registry().histogram("serve.request.total_ms");
  hist_cache_lookup_ms_ = &obs::registry().histogram("serve.cache.lookup_ms");
  hist_queue_ms_ = &obs::registry().histogram("serve.batch.queue_ms");
  hist_forward_ms_ = &obs::registry().histogram("serve.surrogate.forward_ms");
  slow_request_ms_ = options_.slow_request_ms;
  if (const char* env = std::getenv("MAPS_SLOW_REQUEST_MS");
      env != nullptr && *env != '\0') {
    slow_request_ms_ = std::atof(env);
  }
}

PredictionService::~PredictionService() {
  // Every queued surrogate and solver task holds an inflight slot until its
  // finish()/fail(), which is its last touch of this object: wait them out
  // before any member is torn down.
  while (inflight_.load() != 0) std::this_thread::yield();
}

runtime::Future<ServeResponse> PredictionService::submit(ServeRequest request) {
  runtime::Promise<ServeResponse> promise;
  runtime::Future<ServeResponse> future = promise.future();
  counters_.add(ServeCounter::Requests);
  // Every submitted request holds one inflight slot until its terminal
  // finish() or fail() — admission control below counts this uniformly for
  // cache hits, surrogate jobs and solver jobs alike.
  inflight_.fetch_add(1);
  const double start = runtime::now_steady_ms();
  // The trace rides the request into the pipeline; keep a handle for the
  // terminal paths (the request itself is moved into the dispatch).
  const obs::TracePtr trace = request.trace;
  // Declared outside the try so the catch can clean up a registered
  // pending-leader slot when dispatch throws after lead_pending().
  QueryKey key;
  bool leading = false;

  try {
    require(request.eps.nx() == request.spec.nx && request.eps.ny() == request.spec.ny,
            "PredictionService: eps shape does not match spec");
    require(request.J.nx() == request.spec.nx && request.J.ny() == request.spec.ny,
            "PredictionService: source shape does not match spec");
    require(request.omega > 0.0, "PredictionService: omega must be positive");
    const double deadline_abs =
        request.deadline_ms > 0.0 ? start + request.deadline_ms : 0.0;

    const bool surrogate = request.fidelity == solver::FidelityLevel::Low;
    std::shared_ptr<const ServedModel> model;
    int model_version = 0;
    if (surrogate) {
      model = registry_->active();
      require(model != nullptr, "PredictionService: no active model for surrogate "
                                "fidelity (load one into the registry)");
      model_version = model->version;
    }

    key = make_key(request, model_version);
    std::shared_ptr<const CachedResult> hit;
    {
      obs::ScopedSpan span("cache.lookup", trace.get(), hist_cache_lookup_ms_);
      hit = cache_.get(key);
    }
    if (hit) {
      counters_.add(ServeCounter::CacheHits);
      ServeResponse response;
      response.Ez = hit->Ez;
      // `source` reports the tier that produced the answer; cache_hit says
      // it was served from the cache without re-running that tier.
      response.source =
          hit->solver_grade ? ResponseSource::Solver : ResponseSource::Surrogate;
      response.cache_hit = true;
      if (model != nullptr) {
        response.model_id = model->id;
        response.model_version = model->version;
      }
      finish(promise, std::move(response), start, nullptr, trace);
      return future;
    }

    // Identical query already in flight? Attach to it instead of running
    // the pipeline again — the cache-stampede path: N racing misses cost
    // one forward. Attached requests add no pipeline work, so they bypass
    // admission control just like cache hits.
    if (attach_pending(key, promise, start, trace)) return future;

    // Cache misses consume pipeline stages; shed here, at ingress, while the
    // reply still costs microseconds. Cache hits above bypass admission —
    // they never queue.
    admit(request);

    if (!surrogate) {
      // Explicit medium/high fidelity: dispatch a solver-backed job.
      counters_.add(ServeCounter::SolverRequests);
      if (!breaker_->allow()) {
        // Solver tier is fenced off. Degrade to an un-verified surrogate
        // answer when a model is loaded; otherwise the caller gets the
        // structured breaker_open error and its retry_after hint.
        auto fallback = registry_->active();
        if (fallback != nullptr) {
          lead_pending(key);
          leading = true;
          answer_surrogate(std::make_shared<const ServeRequest>(std::move(request)),
                           fallback, key, promise, start, deadline_abs,
                           /*degraded=*/true);
          return future;
        }
        throw BreakerOpenError(
            "PredictionService: solver circuit breaker is open and no "
            "surrogate model is loaded to degrade to");
      }
      lead_pending(key);
      leading = true;
      (void)queue_->submit(
          [this, request = std::move(request), key, promise, start,
           deadline_abs, trace]() mutable -> int {
            try {
              if (deadline_abs > 0.0 && runtime::now_steady_ms() >= deadline_abs) {
                breaker_->cancel();  // the solver never ran: no outcome to record
                throw runtime::DeadlineExceeded(
                    "PredictionService: deadline exceeded in the solver queue");
              }
              ServeResponse response = solve_guarded(request, deadline_abs);
              cache_.put(key, std::make_shared<CachedResult>(
                                  CachedResult{response.Ez, true}));
              finish(promise, std::move(response), start, &key, trace);
            } catch (...) {
              fail(promise, std::current_exception(), &key, trace);
            }
            return 0;
          });
      return future;
    }

    lead_pending(key);
    leading = true;
    // Counted after the pending slot exists: a caller that observes the
    // count can rely on identical queries attaching.
    counters_.add(ServeCounter::SurrogateRequests);
    // The promise is passed by copy (shared state), not moved: if
    // answer_surrogate throws before the task is queued, the catch below
    // still holds a live promise to carry the error to the caller.
    answer_surrogate(std::make_shared<const ServeRequest>(std::move(request)),
                     model, key, promise, start, deadline_abs, /*degraded=*/false);
  } catch (...) {
    fail(promise, std::current_exception(), leading ? &key : nullptr, trace);
  }
  return future;
}

void PredictionService::admit(const ServeRequest& request) {
  (void)request;
  // inflight_ already counts this request, so "more than max_inflight" means
  // max_inflight other requests are occupying the pipeline.
  if (options_.max_inflight > 0 && inflight_.load() > options_.max_inflight) {
    throw OverloadedError(
        "PredictionService: overloaded (" + std::to_string(inflight_.load() - 1) +
            " requests in flight, limit " + std::to_string(options_.max_inflight) + ")",
        backlog_estimate_ms());
  }
  if (options_.max_queue_ms > 0.0) {
    const double wait = backlog_estimate_ms();
    if (wait > options_.max_queue_ms) {
      throw OverloadedError(
          "PredictionService: overloaded (estimated queue wait " +
              std::to_string(wait) + " ms exceeds max_queue_ms " +
              std::to_string(options_.max_queue_ms) + ")",
          wait);
    }
  }
}

double PredictionService::backlog_estimate_ms() const {
  // Queue-theory-lite: (waiting ahead of you) / workers * average service
  // time.
  const std::uint64_t done = counters_.load(ServeCounter::Completed);
  double avg = kColdServiceMs;
  if (done > 0) {
    std::lock_guard lk(latency_mu_);
    avg = total_latency_ms_ / static_cast<double>(done);
  }
  const std::uint64_t inflight = inflight_.load();
  const double ahead = inflight > 0 ? static_cast<double>(inflight - 1) : 0.0;
  const double workers = static_cast<double>(std::max<std::size_t>(1, queue_->worker_count()));
  return std::max(1.0, ahead / workers * std::max(avg, 0.1));
}

void PredictionService::answer_surrogate(
    std::shared_ptr<const ServeRequest> request,
    const std::shared_ptr<const ServedModel>& model, const QueryKey& key,
    runtime::Promise<ServeResponse> promise, double start_ms,
    double deadline_abs_ms, bool degraded) {
  nn::Tensor input = encode_request(*request, *model);
  const double enqueued_ms = runtime::now_steady_ms();
  // The task pins `model`, the snapshot the input was encoded for (inputs
  // are standardizer-specific). The request rides along as a shared_ptr:
  // the task only needs it for escalation, and sharing one buffer avoids
  // deep-copying the eps/J grids.
  (void)queue_->submit([this, request = std::move(request), input = std::move(input),
                        model, key, promise, start_ms, enqueued_ms, deadline_abs_ms,
                        degraded]() mutable -> int {
    const obs::TracePtr& trace = request->trace;
    const bool timed = obs::metrics_enabled() || trace != nullptr;
    const double run_start = timed ? runtime::now_steady_ms() : 0.0;
    if (timed) {
      if (obs::metrics_enabled()) hist_queue_ms_->record(run_start - enqueued_ms);
      if (trace != nullptr) trace->add_span("batch.queue", enqueued_ms, run_start);
    }
    nn::Tensor output;
    std::exception_ptr error;
    try {
      // Chaos hook: MAPS_FAULTS "surrogate.forward" breaks or stalls the
      // forward, so an injected throw takes the same retry path as a real
      // inference failure.
      runtime::fault::point("surrogate.forward");
      output = model->model->infer(input);
    } catch (...) {
      error = std::current_exception();
    }
    if (timed) {
      const double run_end = runtime::now_steady_ms();
      if (obs::metrics_enabled()) hist_forward_ms_->record(run_end - run_start);
      if (trace != nullptr) trace->add_span("surrogate.forward", run_start, run_end);
    }
    try {
      // Queue hand-off deadline check: the reply is late no matter what the
      // forward produced, so don't spend decode/screen/escalation on it.
      if (deadline_abs_ms > 0.0 && runtime::now_steady_ms() >= deadline_abs_ms) {
        throw runtime::DeadlineExceeded(
            "PredictionService: deadline exceeded in the surrogate queue");
      }
      if (error != nullptr) {
        // The forward failed (or a chaos fault fired before it). One retry
        // re-runs the same infer, so a transient failure stays invisible to
        // the caller.
        counters_.add(ServeCounter::SurrogateRetries);
        try {
          output = model->model->infer(input);
          error = nullptr;
        } catch (...) {
          // Surrogate tier is down for this request; fail over to the
          // solver when the breaker permits.
          if (breaker_->allow()) {
            counters_.add(ServeCounter::SolverFailovers);
            ServeResponse solved = solve_guarded(*request, deadline_abs_ms);
            solved.model_id = model->id;
            solved.model_version = model->version;
            cache_.put(key,
                       std::make_shared<CachedResult>(CachedResult{solved.Ez, true}));
            finish(promise, std::move(solved), start_ms, &key, trace);
            return 0;
          }
          std::rethrow_exception(error);
        }
      }

      ServeResponse response;
      response.model_id = model->id;
      response.model_version = model->version;
      response.Ez = maps::train::decode_field(output, 0, model->standardizer);
      response.source = ResponseSource::Surrogate;

      if (degraded) {
        // Breaker-open fallback for a solver-fidelity request: serve the
        // surrogate answer un-verified and say so. Not cached — a recovered
        // solver should re-answer the next identical query at full grade.
        response.degraded = true;
        counters_.add(ServeCounter::DegradedServed);
        finish(promise, std::move(response), start_ms, &key, trace);
        return 0;
      }

      // Confidence screen: a non-finite field always escalates; a field
      // whose RMS blows past the training-set scale is suspect when the
      // RMS screen is armed.
      double sumsq = 0.0;
      bool finite = true;
      for (index_t n = 0; n < response.Ez.size() && finite; ++n) {
        const cplx v = response.Ez[n];
        finite = std::isfinite(v.real()) && std::isfinite(v.imag());
        sumsq += std::norm(v);
      }
      const double rms =
          std::sqrt(sumsq / static_cast<double>(std::max<index_t>(1, response.Ez.size())));
      const bool suspect =
          !finite || (options_.escalate_rms_factor > 0.0 &&
                      rms > options_.escalate_rms_factor *
                                model->standardizer.field_scale);
      if (suspect) {
        // Running on a TaskQueue worker already: solve inline rather than
        // re-queueing (a worker must never wait on queued work).
        counters_.add(ServeCounter::Escalations);
        if (!breaker_->allow()) {
          // Solver tier fenced off: the suspect surrogate answer beats no
          // answer. Degrade instead of escalating.
          response.degraded = true;
          counters_.add(ServeCounter::DegradedServed);
          finish(promise, std::move(response), start_ms, &key, trace);
          return 0;
        }
        try {
          ServeResponse solved = solve_guarded(*request, deadline_abs_ms);
          solved.model_id = model->id;
          solved.model_version = model->version;
          solved.escalated = true;
          cache_.put(key,
                     std::make_shared<CachedResult>(CachedResult{solved.Ez, true}));
          finish(promise, std::move(solved), start_ms, &key, trace);
        } catch (const runtime::DeadlineExceeded&) {
          throw;  // the reply is late either way: report the blown budget
        } catch (...) {
          // Escalation solve broke (breaker recorded the failure inside
          // solve_guarded): degrade to the suspect surrogate answer.
          response.degraded = true;
          counters_.add(ServeCounter::DegradedServed);
          finish(promise, std::move(response), start_ms, &key, trace);
        }
        return 0;
      }
      cache_.put(key, std::make_shared<CachedResult>(CachedResult{response.Ez, false}));
      finish(promise, std::move(response), start_ms, &key, trace);
    } catch (...) {
      fail(promise, std::current_exception(), &key, trace);
    }
    return 0;
  });
}

ServeResponse PredictionService::solve_guarded(const ServeRequest& request,
                                               double deadline_abs_ms) {
  // Wrap the solve in the request's deadline scope and the breaker's
  // accounting. A deadline blown mid-solve counts as a solver timeout —
  // from the pipeline's perspective the tier failed to answer in budget —
  // so repeated timeouts trip the breaker exactly like hard failures.
  // The ambient trace scope lets the solver backend (factorize/solve/
  // refine, which have no trace parameter) record spans against this
  // request from this thread.
  obs::TraceScope trace_scope(request.trace.get());
  try {
    runtime::DeadlineGuard guard(deadline_abs_ms);
    ServeResponse response = solve_high(request);
    runtime::check_deadline("PredictionService::solve_guarded");
    breaker_->record_success();
    return response;
  } catch (...) {
    breaker_->record_failure();
    throw;
  }
}

ServeResponse PredictionService::solve_high(const ServeRequest& request) {
  // The solver tier runs the LDL^T band direct path on a backend of its own:
  // the result cache answers every repeat of a query, so a factorization
  // kept past this solve would only hold memory. Medium fidelity maps to the
  // iterative backend.
  fdfd::SimOptions sim_options;
  sim_options.pml = request.pml;
  sim_options.set_fidelity(request.fidelity == solver::FidelityLevel::Low
                               ? solver::FidelityLevel::High
                               : request.fidelity);
  sim_options.precision = options_.solver_precision;
  fdfd::Simulation sim(request.spec, request.eps, request.omega, sim_options);
  // Refinement work counts also when the solve throws (a deadline can stop
  // it between refinement rounds).
  const auto tally = [this, &sim] {
    const solver::SolverStats work = sim.backend().stats();
    refine_iterations_.fetch_add(static_cast<std::uint64_t>(work.refine_iterations));
    refine_fallbacks_.fetch_add(static_cast<std::uint64_t>(work.refine_fallbacks));
  };
  ServeResponse response;
  try {
    response.Ez = sim.solve(request.J);
  } catch (...) {
    tally();
    throw;
  }
  tally();
  response.source = ResponseSource::Solver;
  return response;
}

bool PredictionService::attach_pending(const QueryKey& key,
                                       const runtime::Promise<ServeResponse>& promise,
                                       double start_ms, const obs::TracePtr& trace) {
  if (!options_.coalesce) return false;
  // Chaos `io` action: pretend the in-flight entry was not found. The
  // request degrades gracefully into a duplicate leader — correct answer,
  // one wasted forward.
  if (runtime::fault::point("coalesce.attach")) return false;
  std::lock_guard lk(pending_mu_);
  auto it = pending_.find(key);
  if (it == pending_.end()) return false;
  it->second.push_back(Waiter{promise, start_ms, trace});
  counters_.add(ServeCounter::Coalesced);
  return true;
}

void PredictionService::lead_pending(const QueryKey& key) {
  if (!options_.coalesce) return;
  std::lock_guard lk(pending_mu_);
  // emplace is a no-op when a racing leader won the slot: this request
  // still runs its own pipeline, it just fans out to nobody.
  pending_.emplace(key, std::vector<Waiter>{});
}

std::vector<PredictionService::Waiter> PredictionService::take_waiters(
    const QueryKey* key) {
  std::vector<Waiter> out;
  if (key == nullptr || !options_.coalesce) return out;
  std::lock_guard lk(pending_mu_);
  auto it = pending_.find(*key);
  if (it != pending_.end()) {
    out = std::move(it->second);
    pending_.erase(it);
  }
  return out;
}

void PredictionService::record_completion(double latency_ms) {
  counters_.add(ServeCounter::Completed);
  std::lock_guard lk(latency_mu_);
  total_latency_ms_ += latency_ms;
  max_latency_ms_ = std::max(max_latency_ms_, latency_ms);
}

void PredictionService::observe_terminal(const obs::TracePtr& trace,
                                         double total_ms, const char* outcome) {
  if (obs::metrics_enabled()) hist_total_ms_->record(total_ms);
  if (trace == nullptr) return;
  if (slow_request_ms_ >= 0.0 && total_ms >= slow_request_ms_ &&
      trace->claim_dump()) {
    obs::write_raw_line(obs::render_span_tree(*trace, total_ms, outcome));
  }
}

void PredictionService::finish(runtime::Promise<ServeResponse>& promise,
                               ServeResponse response, double start_ms,
                               const QueryKey* key, const obs::TracePtr& trace) {
  std::vector<Waiter> waiters = take_waiters(key);
  const double now = runtime::now_steady_ms();
  // Each request is billed its own latency from its own submit().
  for (Waiter& w : waiters) {
    record_completion(now - w.start_ms);
    // The attacher did none of the pipeline work itself — adopt the
    // leader's spans so its trace names what it waited on.
    if (w.trace != nullptr && trace != nullptr) w.trace->adopt(*trace);
    observe_terminal(w.trace, now - w.start_ms, "ok");
  }
  response.latency_ms = now - start_ms;
  record_completion(response.latency_ms);
  observe_terminal(trace, response.latency_ms, "ok");
  // Last touch of service state: the destructor's drain proceeds the moment
  // this hits zero. Every promise is fulfilled after it, so no caller sees
  // its answer while its request still holds a slot.
  inflight_.fetch_sub(1 + waiters.size());
  // Fan out to attached waiters first (they copy), then the leader consumes
  // the original.
  for (Waiter& w : waiters) {
    ServeResponse copy = response;
    copy.latency_ms = now - w.start_ms;
    w.promise.set_value(std::move(copy));
  }
  promise.set_value(std::move(response));
}

void PredictionService::fail(runtime::Promise<ServeResponse>& promise,
                             std::exception_ptr error, const QueryKey* key,
                             const obs::TracePtr& trace) {
  std::vector<Waiter> waiters = take_waiters(key);
  const auto n = static_cast<std::uint64_t>(1 + waiters.size());
  const char* outcome = "error";
  try {
    std::rethrow_exception(error);
  } catch (const OverloadedError&) {
    counters_.add(ServeCounter::Shed, n);
    outcome = "overloaded";
  } catch (const runtime::DeadlineExceeded&) {
    counters_.add(ServeCounter::DeadlineExceeded, n);
    outcome = "deadline_exceeded";
  } catch (...) {
    counters_.add(ServeCounter::Errors, n);
  }
  const double now = runtime::now_steady_ms();
  for (Waiter& w : waiters) {
    if (w.trace != nullptr && trace != nullptr) w.trace->adopt(*trace);
    observe_terminal(w.trace, now - w.start_ms, outcome);
  }
  if (trace != nullptr) observe_terminal(trace, now - trace->created_ms(), outcome);
  // Last touch of service state, before any promise fails (as in finish()).
  inflight_.fetch_sub(n);
  for (Waiter& w : waiters) w.promise.set_exception(error);
  promise.set_exception(std::move(error));
}

ServeStatsSnapshot PredictionService::stats() const {
  ServeStatsSnapshot s;
  counters_.read(s);
  s.breaker = breaker_->stats();
  s.solver_refine_iterations = refine_iterations_.load();
  s.solver_refine_fallbacks = refine_fallbacks_.load();
  {
    std::lock_guard lk(latency_mu_);
    s.total_latency_ms = total_latency_ms_;
    s.max_latency_ms = max_latency_ms_;
  }
  s.cache = cache_.stats();
  return s;
}

}  // namespace maps::serve
