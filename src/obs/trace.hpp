// Request tracing: a trace context created at ingress (HTTP or stdio),
// carried by shared_ptr through the serving pipeline, and recorded as
// named per-stage spans on the steady clock.
//
// A Trace is cheap and self-contained: an id (the client's X-Request-Id
// when supplied, else a generated `r-<hex>-<n>`), a creation timestamp and
// a bounded span list (kMaxSpans, overflow counted in dropped()). Spans
// are half-open [start_ms, end_ms] on runtime::now_steady_ms().
//
// Two recording styles:
//   * plumbed  — the serve layer threads `obs::TracePtr` through
//     ServeRequest / the surrogate task / coalescing waiters and calls
//     add_span (or ScopedSpan) at stage boundaries;
//   * ambient  — deep code with no trace parameter (DirectBandedBackend
//     factorize/solve/refine) records against the thread-local
//     current_trace(), installed by TraceScope on the worker thread that
//     runs the solver tier. Same pattern as runtime/deadline.hpp.
//
// Coalesced requests: the leader's trace accumulates the real work spans;
// at fan-out each attached waiter's trace `adopt()`s the leader's spans so
// every client's slow-request dump names the solver work it actually
// waited on.
//
// Disabled-path cost: traces are only allocated at ingress when metrics
// are enabled or a slow-request threshold is armed; every recording site
// first checks a null pointer (plumbed) or a thread-local load (ambient).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace maps::obs {

class Histogram;

struct Span {
  std::string name;
  double start_ms = 0.0;  // steady clock, runtime::now_steady_ms()
  double end_ms = 0.0;
};

class Trace {
 public:
  static constexpr std::size_t kMaxSpans = 128;

  /// `id` empty => generate one. Stamps created_ms from the steady clock.
  explicit Trace(std::string id = {});

  const std::string& id() const { return id_; }
  double created_ms() const { return created_ms_; }

  void add_span(std::string_view name, double start_ms, double end_ms);

  /// Copy every span of `other` into this trace (coalescing fan-out:
  /// attacher adopts the leader's work). Self-adopt is a no-op.
  void adopt(const Trace& other);

  std::vector<Span> spans() const;
  std::uint64_t dropped() const;

  /// One-shot latch for the slow-request dump: first caller gets true.
  bool claim_dump();

 private:
  std::string id_;
  double created_ms_ = 0.0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  bool dumped_ = false;
};

using TracePtr = std::shared_ptr<Trace>;

/// Process-unique request id: `r-<boot hex>-<counter>`. Monotone within a
/// process, collision-resistant across processes (seeded from the steady
/// clock at first call + this process's address-space layout).
std::string next_request_id();

/// Ambient trace for the calling thread (null when none installed).
Trace* current_trace();

/// Install `trace` (may be null) as the calling thread's ambient trace for
/// the scope; restores the previous one on destruction. Nests.
class TraceScope {
 public:
  explicit TraceScope(Trace* trace);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Trace* previous_;
};

/// RAII span: reads the clock on construction only when there is somewhere
/// to record (a live trace, or a histogram while metrics are enabled);
/// otherwise both ends are no-ops. `trace` and `hist` may each be null.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Trace* trace, Histogram* hist = nullptr);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  Trace* trace_;
  Histogram* hist_;
  double start_ms_ = 0.0;
  bool active_ = false;
};

/// The slow-request NDJSON line: one object with the trace id, total
/// latency, outcome and the whole span tree (names + relative offsets).
/// Rendered with the io JSON writer; callers write it to the log sink.
std::string render_span_tree(const Trace& trace, double total_ms,
                             std::string_view outcome);

}  // namespace maps::obs
