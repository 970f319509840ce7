// HTTP/1.1 serve front end on the net::EventLoop.
//
// One event-loop thread owns every socket: accepts, reads, incremental
// parsing and reply writes all happen there, so thousands of idle keep-alive
// connections cost file descriptors, not threads. Service work never runs on
// the loop: a /predict body is handed to the service's TaskQueue, the
// prediction futures are subscribed, and the finished reply is posted back
// to the loop thread, which slots it into the connection's in-order reply
// queue (pipelined requests answer strictly in request order).
//
// Every route lives under the /v1 prefix; see serve/README.md for the
// versioning contract. Any other target (a bare path such as /predict, or
// another /v<n>/ prefix) answers a structured 404. Endpoints:
//   POST /v1/predict           one wire request object, or a JSON array of
//                              them (the reply is then a JSON array,
//                              per-element ok/error)
//   GET  /v1/healthz           {"status": "ok" | "degraded" | "draining" |
//                              "unavailable", ...} — degraded/unavailable
//                              follow the solver breaker and model registry,
//                              draining follows the stop flag; statuses
//                              ok/degraded answer 200, the rest 503; carries
//                              jobs_running/jobs_queued when jobs are mounted
//   GET  /v1/stats             the ServeStats wire JSON (same document as
//                              the CLI "serve_stats" report block)
//   GET  /v1/metrics           the same counters plus latency histograms as
//                              Prometheus text
//   POST /v1/jobs              submit a long-running job (serve/jobs.hpp)
//   GET  /v1/jobs              list jobs, submission-ordered
//   GET  /v1/jobs/{id}         status + progress of one job
//   GET  /v1/jobs/{id}/result  terminal document (409 before terminal state)
//   POST /v1/jobs/{id}/cancel  request cancellation (idempotent)
// The jobs routes answer 404 "jobs API disabled" unless options.jobs is set.
//
// Errors reuse the PR 7 wire envelope {"error":{"code",...}}: 400
// bad_request, 404 not_found, 405 method_not_allowed, 409 not_ready, 413
// request_too_large, 429 overloaded (+ Retry-After), 503 breaker_open /
// shutting_down, 504 deadline_exceeded, 500 internal.
//
// Shutdown: when options.stream.stop flips, the listener closes, reads
// pause, in-flight replies drain under stream.drain_deadline_ms, then every
// connection is torn down and serve_http returns.
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <string>

#include "serve/server.hpp"

namespace maps::serve {

class JobManager;

struct HttpOptions {
  /// Listening address: an IPv4 literal. The default keeps the server
  /// loopback-only; serve other machines by opting into "0.0.0.0" (or a
  /// specific interface) explicitly.
  std::string bind_address = "127.0.0.1";
  int port = 0;          // 0 picks a free port (see bound_port)
  int backlog = 128;
  /// Accepted-connection cap; excess accepts are closed immediately.
  std::size_t max_connections = 10000;
  std::size_t max_header_bytes = 64u << 10;  // over it: 431, close
  /// Drain-flag poll period of the loop (ms).
  double tick_ms = 20.0;
  /// Knobs shared with the stdio front end: max_request_bytes (the body cap
  /// behind 413), conn_max_inflight (per-connection pipeline window), stop,
  /// drain_deadline_ms.
  StreamOptions stream;
  /// Mounts the /v1/jobs routes when non-null (borrowed, must outlive the
  /// server). Shutdown drains it: running jobs journal their checkpoint and
  /// park at the next step boundary.
  JobManager* jobs = nullptr;
};

struct HttpServeReport {
  std::size_t requests = 0;     // HTTP requests parsed (all endpoints)
  std::size_t errors = 0;       // error replies (4xx/5xx) + aborted conns
  std::size_t connections = 0;  // connections accepted
};

/// Run the HTTP front end until the stop flag flips (or forever). Blocks the
/// calling thread (it becomes the event-loop thread). `bound_port`, when
/// non-null, receives the listening port before the first accept.
HttpServeReport serve_http(PredictionService& service,
                           const WireDefaults& defaults,
                           const HttpOptions& options = {},
                           std::ostream* log = nullptr,
                           std::atomic<int>* bound_port = nullptr);

}  // namespace maps::serve
