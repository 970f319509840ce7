// Wire protocol of the serving layer: newline-delimited JSON.
//
// One request per line on the way in, one reply per line on the way out,
// ordered. Requests:
//
//   {"id": 7,                     // optional, echoed verbatim in the reply
//    "eps": [ ... ],              // nx*ny permittivity values, x fastest
//    "nx": 64, "ny": 64,
//    "dl": 0.1,                   // optional, default from the serve config
//    "wavelength": 1.55,          // or "omega"; optional
//    "fidelity": "low",           // low = surrogate, medium = iterative
//                                 // solve, high = direct LDL^T solve
//    "source": {"type": "point", "i": 16, "j": 32},
//                                 // or {"re": [...], "im": [...]} (nx*ny);
//                                 // optional, default point at (nx/4, ny/2)
//    "return_field": true}        // optional; false returns summary only
//
// Replies:
//
//   {"id": 7, "ok": true, "source": "surrogate", "cache_hit": false,
//    "escalated": false, "model": "bend-fno", "model_version": 1,
//    "latency_ms": 1.9, "nx": 64, "ny": 64, "rms": 0.37,
//    "field": {"re": [...], "im": [...]}}
//
// "source" is the tier that produced the answer ("surrogate" | "solver");
// "cache_hit": true marks a reply served from the result cache without
// re-running that tier; "degraded": true marks a best-effort surrogate
// answer served while the solver tier's circuit breaker is open. Such an
// answer may hold non-finite values: every number is written as its
// shortest round-trip text (io/json.hpp), and NaN or +-inf as null, so a
// degraded reply's "field" cells and "rms" can be null.
//
// Requests may carry "deadline_ms": a per-request latency budget. A request
// that cannot be answered inside it fails with code "deadline_exceeded".
//
// Errors: {"id": ..., "ok": false, "error": {"code": "...", "message":
// "...", "retry_after_ms": ...}} — the stream stays usable after an error
// reply. Codes: "bad_request" (malformed request), "request_too_large"
// (line over the server's byte cap), "overloaded" (admission control shed
// the request; retry_after_ms is the backlog estimate),
// "deadline_exceeded", "breaker_open" (solver fenced off, no surrogate to
// degrade to), "shutting_down" (server draining), "internal". The jobs API
// (serve/jobs.hpp) adds "not_found" (unknown id or route), "not_ready"
// (result fetched before a terminal state) and, inside terminal result
// documents, "job_failed" / "job_cancelled". Every front end emits this
// same envelope through the single encoder below.
#pragma once

#include "io/json.hpp"
#include "serve/jobs.hpp"
#include "serve/service.hpp"

namespace maps::serve {

/// Request fields the wire format lets clients omit (set from ServeConfig).
struct WireDefaults {
  double dl = 0.1;
  double omega = 0.0;  // 0 = derive from `wavelength` default below
  double wavelength = 1.55;
  fdfd::PmlSpec pml;
  solver::FidelityLevel fidelity = solver::FidelityLevel::Low;

  double default_omega() const;
};

struct WireRequest {
  io::JsonValue id;  // null when the client sent none
  ServeRequest request;
  bool return_field = true;
};

/// Parse one request document. Throws MapsError on malformed requests.
WireRequest parse_request(const io::JsonValue& doc, const WireDefaults& defaults);

io::JsonValue encode_response(const io::JsonValue& id, const ServeResponse& response,
                              bool return_field);

/// Streaming encoder: the same reply document as encode_response(...).dump()
/// — byte-identical, pinned by tests — serialized straight onto a string via
/// io::JsonWriter. The hot reply path: no JsonValue tree per response, which
/// matters when `field` carries nx*ny*2 numbers.
std::string encode_response_text(const io::JsonValue& id,
                                 const ServeResponse& response, bool return_field);

/// A structured wire error: machine-readable code + human message, plus an
/// optional backlog hint for "overloaded".
struct WireError {
  std::string code = "internal";
  std::string message;
  double retry_after_ms = 0.0;  // emitted only when > 0
};

/// Map a failed request's exception onto its wire error code:
/// OverloadedError -> "overloaded" (with retry_after_ms), DeadlineExceeded ->
/// "deadline_exceeded", BreakerOpenError -> "breaker_open", anything else ->
/// "internal".
WireError classify_error(std::exception_ptr error);

io::JsonValue encode_error(const io::JsonValue& id, const WireError& error);
/// Parse-site convenience: code "bad_request".
io::JsonValue encode_error(const io::JsonValue& id, const std::string& message);

/// Streaming form of encode_error — byte-identical to
/// encode_error(id, error).dump().
std::string encode_error_text(const io::JsonValue& id, const WireError& error);

/// The "serve_stats" report block (CLI exit report, /v1/stats, tests).
/// `jobs` — the job-manager counters when the jobs API is mounted — adds a
/// "jobs" sub-block; null omits it. When metrics are enabled a "latency"
/// block is appended: per-stage histogram readouts (count, sum_ms,
/// p50/p90/p99) from the obs registry. Existing keys stay bit-compatible.
io::JsonValue stats_to_json(const ServeStatsSnapshot& stats,
                            const JobsStatsSnapshot* jobs = nullptr);

/// The per-stage latency block alone (the "latency" value stats_to_json
/// merges in): one object per registered histogram.
io::JsonValue latency_to_json();

/// The GET /v1/metrics page: Prometheus text exposition (0.0.4) of the obs
/// registry (per-stage latency histograms with buckets + p50/p90/p99)
/// merged with one sample for every number of stats_to_json (both render
/// one row list), per-shard cache hit ratios and the breaker state. One
/// scrape surface for the whole process.
std::string metrics_text(const PredictionService& service,
                         const JobManager* jobs = nullptr);

}  // namespace maps::serve
