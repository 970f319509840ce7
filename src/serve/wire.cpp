#include "serve/wire.hpp"

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

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

namespace {

/// One number both stats surfaces carry: its /v1/stats block ("" for the
/// top level) and key, and its /v1/metrics family and type.
struct StatRow {
  const char* block;
  std::string key, family;
  bool counter;  // else a gauge
  double value;
};

/// Every number of stats_to_json but breaker.state: the counter tables,
/// whose families follow maps_<prefix>_<name>_total, then the values other
/// components keep, each under its own family.
std::vector<StatRow> stat_rows(const ServeStatsSnapshot& s,
                               const JobsStatsSnapshot* jobs) {
  std::vector<StatRow> rows;
  const auto add = [&rows](const char* block, std::string key, std::string family,
                           bool counter, double value) {
    rows.push_back({block, std::move(key), std::move(family), counter, value});
  };
  const auto table = [&add](const char* block, const std::string& prefix,
                            const auto& names, const auto& counts) {
    for (std::size_t i = 0; i < std::size(names); ++i) {
      add(block, names[i], prefix + names[i] + "_total", true, counts.values[i]);
    }
  };
  table("", "maps_serve_", kServeCounterNames, s);
  add("", "cache_hit_rate", "maps_serve_cache_hit_ratio", false, s.cache.hit_rate());
  add("", "cache_entries", "maps_serve_cache_entries", false, s.cache.entries);
  add("", "cache_evictions", "maps_serve_cache_evictions_total", true, s.cache.evictions);
  add("", "solver_refine_iterations", "maps_solver_refine_iterations_total", true,
      s.solver_refine_iterations);
  add("", "solver_refine_fallbacks", "maps_solver_refine_fallbacks_total", true,
      s.solver_refine_fallbacks);
  const double completed = static_cast<double>(s[ServeCounter::Completed]);
  add("", "avg_latency_ms", "maps_serve_avg_latency_ms", false,
      completed == 0 ? 0.0 : s.total_latency_ms / completed);
  add("", "max_latency_ms", "maps_serve_max_latency_ms", false, s.max_latency_ms);
  const BreakerStats& b = s.breaker;
  add("breaker", "failures", "maps_serve_breaker_failures_total", true, b.failures);
  add("breaker", "successes", "maps_serve_breaker_successes_total", true, b.successes);
  add("breaker", "open_total", "maps_serve_breaker_open_total", true, b.open_total);
  add("breaker", "rejected", "maps_serve_breaker_rejected_total", true, b.rejected);
  add("breaker", "current_backoff_ms", "maps_serve_breaker_current_backoff_ms", false,
      b.current_backoff_ms);
  if (jobs != nullptr) {  // the jobs API is mounted
    table("jobs", "maps_jobs_", kJobsCounterNames, *jobs);
    add("jobs", "running", "maps_jobs_running", false, jobs->running);
    add("jobs", "queued", "maps_jobs_queued", false, jobs->queued);
  }
  return rows;
}

}  // namespace

JsonValue stats_to_json(const ServeStatsSnapshot& stats,
                        const JobsStatsSnapshot* jobs) {
  JsonValue v;
  for (const StatRow& row : stat_rows(stats, jobs)) {
    (*row.block == '\0' ? v : v[row.block])[row.key] = row.value;
  }
  v["breaker"]["state"] = breaker_state_name(stats.breaker.state);
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
  const ServeStatsSnapshot s = service.stats();
  const JobsStatsSnapshot j = jobs != nullptr ? jobs->stats() : JobsStatsSnapshot{};
  for (const StatRow& row : stat_rows(s, jobs != nullptr ? &j : nullptr)) {
    os << "# TYPE " << row.family << (row.counter ? " counter\n" : " gauge\n")
       << row.family << " ";
    if (row.counter) {
      os << static_cast<std::uint64_t>(row.value) << "\n";
    } else {
      os << row.value << "\n";
    }
  }
  // Breaker: one 0/1 sample per state (the standard enum exposition).
  os << "# TYPE maps_serve_breaker_state gauge\n";
  for (const BreakerState state :
       {BreakerState::Closed, BreakerState::Open, BreakerState::HalfOpen}) {
    os << "maps_serve_breaker_state{state=\"" << breaker_state_name(state)
       << "\"} " << (s.breaker.state == state ? 1 : 0) << "\n";
  }
  return os.str();
}

}  // namespace maps::serve
