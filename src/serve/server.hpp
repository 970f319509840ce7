// The ndjson stdio front end, kept for CLI piping (`maps_cli serve` without
// "http"); the socket front end is serve/http_server.hpp.
//
// serve_stream is pipelined: a reader parses request lines and submits them
// to the service immediately, while a writer thread emits replies in request
// order — so a client that streams many lines before reading replies keeps
// every worker busy. The in-flight window is bounded (backpressure: the
// reader parks when the reply queue is full). EOF drains everything and
// returns.
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>

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
};

/// Serve ndjson requests from `in`, one reply line per request on `out`,
/// until EOF (or `options.stop`). `log` (optional) receives human-readable
/// progress lines. A client that disappears mid-reply (broken pipe) is
/// logged and the remaining replies are drained unsent — never fatal.
StreamServeReport serve_stream(PredictionService& service,
                               const WireDefaults& defaults, std::istream& in,
                               std::ostream& out, std::ostream* log = nullptr,
                               const StreamOptions& options = {});

}  // namespace maps::serve
