#include "serve/wire.hpp"

#include <cmath>
#include <sstream>

#include "fdfd/source.hpp"
#include "obs/metrics.hpp"
#include "runtime/fault.hpp"

namespace maps::serve {

using io::JsonArray;
using io::JsonValue;

double WireDefaults::default_omega() const {
  return omega > 0.0 ? omega : omega_of_wavelength(wavelength);
}

namespace {

maps::math::RealGrid parse_eps(const JsonValue& doc, index_t nx, index_t ny) {
  const JsonArray& arr = doc.at("eps").as_array();
  // Checked by division: nx*ny can overflow index_t and pass a short eps.
  const auto cols = static_cast<std::size_t>(ny);
  require(arr.size() % cols == 0 && arr.size() / cols == static_cast<std::size_t>(nx),
          "serve request: eps must have nx*ny entries");
  maps::math::RealGrid eps(nx, ny);
  for (std::size_t n = 0; n < arr.size(); ++n) {
    eps[static_cast<index_t>(n)] = arr[n].as_number();
  }
  return eps;
}

maps::math::CplxGrid parse_source(const JsonValue* src, const grid::GridSpec& spec) {
  if (src == nullptr) {
    return fdfd::point_source(spec, spec.nx / 4, spec.ny / 2);
  }
  if (src->has("type")) {
    const std::string& type = src->at("type").as_string();
    require(type == "point", "serve request: source type must be 'point'");
    const index_t i = static_cast<index_t>(src->at("i").as_int());
    const index_t j = static_cast<index_t>(src->at("j").as_int());
    require(i >= 0 && i < spec.nx && j >= 0 && j < spec.ny,
            "serve request: point source outside the grid");
    return fdfd::point_source(spec, i, j);
  }
  const JsonArray& re = src->at("re").as_array();
  const JsonArray& im = src->at("im").as_array();
  require(static_cast<index_t>(re.size()) == spec.cells() && re.size() == im.size(),
          "serve request: source re/im must have nx*ny entries");
  maps::math::CplxGrid J(spec.nx, spec.ny);
  for (std::size_t n = 0; n < re.size(); ++n) {
    J[static_cast<index_t>(n)] = cplx{re[n].as_number(), im[n].as_number()};
  }
  return J;
}

}  // namespace

WireRequest parse_request(const JsonValue& doc, const WireDefaults& defaults) {
  require(doc.is_object(), "serve request: expected a JSON object");
  WireRequest out;
  if (const JsonValue* id = doc.find("id")) out.id = *id;

  const index_t nx = static_cast<index_t>(doc.at("nx").as_int());
  const index_t ny = static_cast<index_t>(doc.at("ny").as_int());
  require(nx > 0 && ny > 0, "serve request: nx and ny must be positive");
  ServeRequest& req = out.request;
  req.spec = grid::GridSpec{nx, ny,
                            doc.has("dl") ? doc.at("dl").as_number() : defaults.dl};
  require(req.spec.dl > 0.0, "serve request: dl must be positive");
  req.eps = parse_eps(doc, nx, ny);
  req.J = parse_source(doc.find("source"), req.spec);
  req.pml = defaults.pml;

  if (doc.has("omega")) {
    req.omega = doc.at("omega").as_number();
  } else if (doc.has("wavelength")) {
    req.omega = omega_of_wavelength(doc.at("wavelength").as_number());
  } else {
    req.omega = defaults.default_omega();
  }
  require(req.omega > 0.0 && std::isfinite(req.omega),
          "serve request: omega/wavelength must be positive");

  req.fidelity = doc.has("fidelity")
                     ? solver::fidelity_from_name(doc.at("fidelity").as_string())
                     : defaults.fidelity;
  if (doc.has("deadline_ms")) {
    req.deadline_ms = doc.at("deadline_ms").as_number();
    require(req.deadline_ms > 0.0 && std::isfinite(req.deadline_ms),
            "serve request: deadline_ms must be positive");
  }
  out.return_field =
      doc.has("return_field") ? doc.at("return_field").as_bool() : true;
  return out;
}

JsonValue encode_response(const JsonValue& id, const ServeResponse& response,
                          bool return_field) {
  JsonValue v;
  v["id"] = id;
  v["ok"] = true;
  v["source"] = response_source_name(response.source);
  v["cache_hit"] = response.cache_hit;
  v["escalated"] = response.escalated;
  v["degraded"] = response.degraded;
  if (!response.model_id.empty()) {
    v["model"] = response.model_id;
    v["model_version"] = response.model_version;
  }
  v["latency_ms"] = response.latency_ms;
  v["nx"] = response.Ez.nx();
  v["ny"] = response.Ez.ny();
  double sumsq = 0.0;
  for (index_t n = 0; n < response.Ez.size(); ++n) sumsq += std::norm(response.Ez[n]);
  v["rms"] = response.Ez.size() == 0
                 ? 0.0
                 : std::sqrt(sumsq / static_cast<double>(response.Ez.size()));
  if (return_field) {
    JsonArray re, im;
    re.reserve(static_cast<std::size_t>(response.Ez.size()));
    im.reserve(static_cast<std::size_t>(response.Ez.size()));
    for (index_t n = 0; n < response.Ez.size(); ++n) {
      re.push_back(response.Ez[n].real());
      im.push_back(response.Ez[n].imag());
    }
    JsonValue field;
    field["re"] = JsonValue(std::move(re));
    field["im"] = JsonValue(std::move(im));
    v["field"] = field;
  }
  return v;
}

std::string encode_response_text(const JsonValue& id, const ServeResponse& response,
                                 bool return_field) {
  // Mirrors encode_response exactly: same fields, emitted in std::map key
  // order (the order dump() would use), so the bytes match dump(0).
  std::string out;
  out.reserve(return_field
                  ? static_cast<std::size_t>(response.Ez.size()) * 40 + 256
                  : 256);
  io::JsonWriter w(out);
  w.begin_object();
  w.key("cache_hit").value(response.cache_hit);
  w.key("degraded").value(response.degraded);
  w.key("escalated").value(response.escalated);
  if (return_field) {
    w.key("field").begin_object();
    w.key("im").begin_array();
    for (index_t n = 0; n < response.Ez.size(); ++n) w.value(response.Ez[n].imag());
    w.end_array();
    w.key("re").begin_array();
    for (index_t n = 0; n < response.Ez.size(); ++n) w.value(response.Ez[n].real());
    w.end_array();
    w.end_object();
  }
  w.key("id").value(id);
  w.key("latency_ms").value(response.latency_ms);
  if (!response.model_id.empty()) {
    w.key("model").value(response.model_id);
    w.key("model_version").value(response.model_version);
  }
  w.key("nx").value(response.Ez.nx());
  w.key("ny").value(response.Ez.ny());
  w.key("ok").value(true);
  double sumsq = 0.0;
  for (index_t n = 0; n < response.Ez.size(); ++n) sumsq += std::norm(response.Ez[n]);
  w.key("rms").value(response.Ez.size() == 0
                         ? 0.0
                         : std::sqrt(sumsq / static_cast<double>(response.Ez.size())));
  w.key("source").value(response_source_name(response.source));
  w.end_object();
  return out;
}

std::string encode_error_text(const JsonValue& id, const WireError& error) {
  // One encoder for every front end: error documents are small (no nx*ny
  // field payload), so the streaming path simply serializes the tree the
  // canonical encoder builds — bit-identity by construction, not by two
  // hand-assembled copies kept in sync.
  return encode_error(id, error).dump();
}

WireError classify_error(std::exception_ptr error) {
  WireError out;
  try {
    std::rethrow_exception(std::move(error));
  } catch (const OverloadedError& e) {
    out.code = "overloaded";
    out.message = e.what();
    out.retry_after_ms = e.retry_after_ms;
  } catch (const runtime::DeadlineExceeded& e) {
    out.code = "deadline_exceeded";
    out.message = e.what();
  } catch (const BreakerOpenError& e) {
    out.code = "breaker_open";
    out.message = e.what();
  } catch (const std::exception& e) {
    out.code = "internal";
    out.message = e.what();
  } catch (...) {
    out.code = "internal";
    out.message = "unknown error";
  }
  return out;
}

JsonValue encode_error(const JsonValue& id, const WireError& error) {
  JsonValue v;
  v["id"] = id;
  v["ok"] = false;
  JsonValue detail;
  detail["code"] = error.code;
  detail["message"] = error.message;
  if (error.retry_after_ms > 0.0) detail["retry_after_ms"] = error.retry_after_ms;
  v["error"] = detail;
  return v;
}

JsonValue encode_error(const JsonValue& id, const std::string& message) {
  return encode_error(id, WireError{"bad_request", message, 0.0});
}

JsonValue stats_to_json(const ServeStatsSnapshot& stats,
                        const JobsStatsSnapshot* jobs) {
  JsonValue v;
  v["requests"] = static_cast<double>(stats.requests);
  v["cache_hits"] = static_cast<double>(stats.cache_hits);
  v["cache_hit_rate"] = stats.cache.hit_rate();
  v["cache_entries"] = static_cast<double>(stats.cache.entries);
  v["cache_evictions"] = static_cast<double>(stats.cache.evictions);
  v["surrogate_requests"] = static_cast<double>(stats.surrogate_requests);
  v["solver_requests"] = static_cast<double>(stats.solver_requests);
  v["escalations"] = static_cast<double>(stats.escalations);
  v["errors"] = static_cast<double>(stats.errors);
  v["solver_refine_iterations"] =
      static_cast<double>(stats.solver_refine_iterations);
  v["solver_refine_fallbacks"] =
      static_cast<double>(stats.solver_refine_fallbacks);
  v["avg_latency_ms"] = stats.avg_latency_ms();
  v["max_latency_ms"] = stats.max_latency_ms;
  // Reliability counters.
  v["completed"] = static_cast<double>(stats.completed);
  v["shed"] = static_cast<double>(stats.shed);
  v["deadline_exceeded"] = static_cast<double>(stats.deadline_exceeded);
  v["degraded_served"] = static_cast<double>(stats.degraded_served);
  v["surrogate_retries"] = static_cast<double>(stats.surrogate_retries);
  v["solver_failovers"] = static_cast<double>(stats.solver_failovers);
  v["coalesced"] = static_cast<double>(stats.coalesced);
  JsonValue breaker;
  breaker["state"] = breaker_state_name(stats.breaker.state);
  breaker["failures"] = static_cast<double>(stats.breaker.failures);
  breaker["successes"] = static_cast<double>(stats.breaker.successes);
  breaker["open_total"] = static_cast<double>(stats.breaker.open_total);
  breaker["rejected"] = static_cast<double>(stats.breaker.rejected);
  breaker["current_backoff_ms"] = stats.breaker.current_backoff_ms;
  v["breaker"] = breaker;
  // Long-running jobs block, present only when the jobs API is mounted.
  if (jobs != nullptr) {
    JsonValue j;
    j["submitted"] = static_cast<double>(jobs->submitted);
    j["completed"] = static_cast<double>(jobs->completed);
    j["failed"] = static_cast<double>(jobs->failed);
    j["cancelled"] = static_cast<double>(jobs->cancelled);
    j["resumed"] = static_cast<double>(jobs->resumed);
    j["shed"] = static_cast<double>(jobs->shed);
    j["steps"] = static_cast<double>(jobs->steps);
    j["journal_retries"] = static_cast<double>(jobs->journal_retries);
    j["running"] = jobs->running;
    j["queued"] = jobs->queued;
    v["jobs"] = j;
  }
  // Per-fault-point chaos counters, present only when MAPS_FAULTS armed
  // anything (the block's absence is the "clean run" signal).
  if (runtime::fault::armed()) {
    JsonValue faults;
    for (const auto& p : runtime::fault::stats()) {
      JsonValue entry;
      entry["hits"] = static_cast<double>(p.hits);
      entry["fires"] = static_cast<double>(p.fires);
      faults[p.name] = entry;
    }
    v["faults"] = faults;
  }
  // Per-stage latency readouts from the obs registry, present only while
  // metrics are enabled (existing keys above stay bit-compatible).
  if (obs::metrics_enabled()) {
    v["latency"] = latency_to_json();
  }
  return v;
}

JsonValue latency_to_json() {
  JsonValue block;
  obs::registry().visit_histograms(
      [&block](const std::string& name, const obs::Histogram& h) {
        const obs::Histogram::Snapshot snap = h.snapshot();
        JsonValue e;
        e["count"] = static_cast<double>(snap.count);
        e["sum_ms"] = snap.sum;
        e["p50_ms"] = snap.percentile(0.50);
        e["p90_ms"] = snap.percentile(0.90);
        e["p99_ms"] = snap.percentile(0.99);
        block[name] = e;
      });
  return block;
}

std::string metrics_text(const PredictionService& service,
                         const JobManager* jobs) {
  std::ostringstream os;
  os.precision(9);
  os << obs::registry().render_prometheus();
  const auto counter = [&os](const char* name, std::uint64_t value) {
    os << "# TYPE " << name << " counter\n" << name << " " << value << "\n";
  };
  const auto gauge = [&os](const char* name, double value) {
    os << "# TYPE " << name << " gauge\n" << name << " " << value << "\n";
  };
  const ServeStatsSnapshot s = service.stats();
  counter("maps_serve_requests_total", s.requests);
  counter("maps_serve_completed_total", s.completed);
  counter("maps_serve_cache_hits_total", s.cache_hits);
  counter("maps_serve_cache_evictions_total", s.cache.evictions);
  counter("maps_serve_surrogate_requests_total", s.surrogate_requests);
  counter("maps_serve_solver_requests_total", s.solver_requests);
  counter("maps_serve_escalations_total", s.escalations);
  counter("maps_serve_errors_total", s.errors);
  counter("maps_serve_shed_total", s.shed);
  counter("maps_serve_deadline_exceeded_total", s.deadline_exceeded);
  counter("maps_serve_degraded_served_total", s.degraded_served);
  counter("maps_serve_surrogate_retries_total", s.surrogate_retries);
  counter("maps_serve_solver_failovers_total", s.solver_failovers);
  counter("maps_serve_coalesced_total", s.coalesced);
  counter("maps_solver_refine_iterations_total", s.solver_refine_iterations);
  counter("maps_solver_refine_fallbacks_total", s.solver_refine_fallbacks);
  gauge("maps_serve_cache_entries", static_cast<double>(s.cache.entries));
  gauge("maps_serve_cache_hit_ratio", s.cache.hit_rate());
  // Per-shard hit ratio: a skewed key distribution shows up as one hot
  // shard long before the aggregate ratio moves.
  const auto shards = service.cache_shard_stats();
  os << "# TYPE maps_serve_cache_shard_hit_ratio gauge\n";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    os << "maps_serve_cache_shard_hit_ratio{shard=\"" << i << "\"} "
       << shards[i].hit_rate() << "\n";
  }
  // Breaker: one 0/1 sample per state (the standard enum exposition), plus
  // its counters.
  os << "# TYPE maps_serve_breaker_state gauge\n";
  for (const BreakerState state :
       {BreakerState::Closed, BreakerState::Open, BreakerState::HalfOpen}) {
    os << "maps_serve_breaker_state{state=\"" << breaker_state_name(state)
       << "\"} " << (s.breaker.state == state ? 1 : 0) << "\n";
  }
  counter("maps_serve_breaker_failures_total", s.breaker.failures);
  counter("maps_serve_breaker_rejected_total", s.breaker.rejected);
  counter("maps_serve_breaker_open_total", s.breaker.open_total);
  if (jobs != nullptr) {
    const JobsStatsSnapshot j = jobs->stats();
    counter("maps_jobs_submitted_total", j.submitted);
    counter("maps_jobs_completed_total", j.completed);
    counter("maps_jobs_failed_total", j.failed);
    counter("maps_jobs_cancelled_total", j.cancelled);
    counter("maps_jobs_resumed_total", j.resumed);
    counter("maps_jobs_shed_total", j.shed);
    counter("maps_jobs_steps_total", j.steps);
    counter("maps_jobs_journal_retries_total", j.journal_retries);
    gauge("maps_jobs_running", static_cast<double>(j.running));
    gauge("maps_jobs_queued", static_cast<double>(j.queued));
  }
  return os.str();
}

}  // namespace maps::serve
