// Serving front ends: the ndjson stdio loop and a simple TCP socket mode.
//
// serve_stream is pipelined: a reader parses request lines and submits them
// to the service immediately, while a writer thread emits replies in request
// order — so a client that streams many lines before reading replies keeps
// every worker busy. The in-flight window is bounded (backpressure: the
// reader parks when the reply queue is full). EOF drains everything and
// returns.
//
// serve_tcp accepts connections on a loopback-bound listening socket and
// runs the same line loop per connection (one thread each, connections
// pipelined independently).
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <string>

#include "serve/wire.hpp"

namespace maps::serve {

/// Default per-connection in-flight reply window of the stream and HTTP
/// front ends: enough pipelined requests to keep every worker busy, bounded
/// so a streaming client cannot queue unbounded field buffers.
inline constexpr std::size_t kDefaultConnMaxInflight = 128;

struct StreamServeReport {
  std::size_t requests = 0;
  std::size_t errors = 0;  // malformed lines / failed predictions
};

/// Per-stream serving limits and lifecycle hooks.
struct StreamOptions {
  /// Request lines longer than this many bytes answer "request_too_large"
  /// (the oversized line is discarded, siblings on the stream are
  /// unaffected). 0 = unlimited.
  std::size_t max_request_bytes = 8ull << 20;
  /// Per-connection in-flight reply cap (reader backpressure window);
  /// 0 = kDefaultConnMaxInflight.
  std::size_t conn_max_inflight = 0;
  /// Graceful-shutdown flag. When it flips true the reader stops consuming
  /// lines and the writer drains already-submitted replies, bounded by
  /// drain_deadline_ms — stragglers answer {"error":{"code":
  /// "shutting_down"}} instead of holding the process open.
  const std::atomic<bool>* stop = nullptr;
  double drain_deadline_ms = 5000.0;
  /// Listening address shared by the socket front ends (TCP and HTTP). Must
  /// be an IPv4 literal; the default keeps the server loopback-only — serve
  /// to other machines by opting into "0.0.0.0" (or a specific interface)
  /// explicitly. Validated at bind time with a clear error.
  std::string bind_address = "127.0.0.1";
};

/// Serve ndjson requests from `in`, one reply line per request on `out`,
/// until EOF (or `options.stop`). `log` (optional) receives human-readable
/// progress lines. A client that disappears mid-reply (broken pipe) is
/// logged and the remaining replies are drained unsent — never fatal.
StreamServeReport serve_stream(PredictionService& service,
                               const WireDefaults& defaults, std::istream& in,
                               std::ostream& out, std::ostream* log = nullptr,
                               const StreamOptions& options = {});

/// Listen on `options.bind_address`:`port` (port 0 picks a free one) and serve each
/// connection with the stream loop. Returns after `max_connections`
/// connections have been served (-1 = forever) or once `options.stop` flips
/// true (active connections are shut down for reading and drained under the
/// drain deadline). `bound_port`, when non-null, receives the actual
/// listening port before the first accept — tests use port 0 plus this to
/// avoid collisions. Socket writes use MSG_NOSIGNAL: a client disconnect
/// mid-reply surfaces as an error on that connection, not SIGPIPE.
void serve_tcp(PredictionService& service, const WireDefaults& defaults, int port,
               std::ostream* log = nullptr, int max_connections = -1,
               std::atomic<int>* bound_port = nullptr,
               const StreamOptions& options = {});

}  // namespace maps::serve
