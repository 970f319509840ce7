#include "serve/server.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/deadline.hpp"

namespace maps::serve {

namespace {

/// One reply slot in the in-order pipeline: either an already-serialized
/// error line (parse failures reply immediately) or a pending prediction.
struct PendingReply {
  bool is_error = false;
  std::string error_text;
  runtime::Future<ServeResponse> future;
  io::JsonValue id;
  bool return_field = true;
};

/// getline with a byte cap: an over-limit line sets `oversized`, the rest of
/// the line is discarded (the stream stays line-synchronized for siblings).
/// Returns false on EOF with nothing read; a final un-terminated line is
/// still delivered.
bool bounded_getline(std::istream& in, std::string& line, std::size_t limit,
                     bool& oversized) {
  line.clear();
  oversized = false;
  char ch;
  while (in.get(ch)) {
    if (ch == '\n') return true;
    if (limit > 0 && line.size() >= limit) {
      oversized = true;
      while (in.get(ch)) {
        if (ch == '\n') break;
      }
      return true;
    }
    line.push_back(ch);
  }
  return !line.empty();
}

}  // namespace

StreamServeReport serve_stream(PredictionService& service,
                               const WireDefaults& defaults, std::istream& in,
                               std::ostream& out, std::ostream* log,
                               const StreamOptions& options) {
  StreamServeReport report;
  std::mutex mu;
  std::condition_variable cv_space, cv_items;
  std::deque<PendingReply> queue;
  bool done_reading = false;
  std::size_t errors = 0;
  // Resolved once: a registry lookup takes its mutex and a map find.
  obs::Histogram* const parse_hist = &obs::registry().histogram("serve.ingress.parse_ms");
  const auto stopping = [&options] {
    return options.stop != nullptr && options.stop->load();
  };
  // The configured per-connection cap tightens the default window.
  std::size_t window = kDefaultConnMaxInflight;
  if (options.conn_max_inflight > 0) {
    window = std::max<std::size_t>(1, std::min(window, options.conn_max_inflight));
  }

  std::thread writer([&] {
    bool sink_broken = false;
    double drain_until = 0.0;  // armed when the stop flag is first observed
    for (;;) {
      PendingReply reply;
      {
        std::unique_lock lk(mu);
        cv_items.wait(lk, [&] { return done_reading || !queue.empty(); });
        if (queue.empty()) return;  // done_reading && drained
        reply = std::move(queue.front());
        queue.pop_front();
      }
      cv_space.notify_one();
      std::string text;
      if (reply.is_error) {
        text = std::move(reply.error_text);
      } else {
        bool ready = true;
        if (stopping()) {
          // Draining: wait out the remaining drain budget, not forever.
          if (drain_until == 0.0) {
            drain_until = runtime::now_steady_ms() + options.drain_deadline_ms;
          }
          ready = reply.future.wait_for_ms(drain_until - runtime::now_steady_ms());
        }
        if (!ready) {
          text = encode_error_text(
              reply.id, WireError{"shutting_down",
                                  "server draining: reply abandoned at shutdown",
                                  0.0});
          std::lock_guard lk(mu);
          ++errors;
        } else {
          try {
            text = encode_response_text(reply.id, reply.future.get(),
                                        reply.return_field);
          } catch (...) {
            text = encode_error_text(reply.id,
                                     classify_error(std::current_exception()));
            std::lock_guard lk(mu);
            ++errors;
          }
        }
      }
      if (!sink_broken) {
        out << text << "\n" << std::flush;
        if (!out.good()) {
          // Client went away mid-reply (broken pipe / closed socket). Not
          // fatal: log it once and drain the remaining replies unsent so
          // the service's in-flight accounting still settles.
          sink_broken = true;
          obs::log_to(log, obs::LogLevel::Warn, "serve",
                      "client disconnected mid-reply; draining remaining "
                      "replies unsent");
        }
      }
    }
  });

  std::string line;
  for (;;) {
    if (stopping()) break;  // shutdown: stop consuming, drain what's in
    bool oversized = false;
    if (!bounded_getline(in, line, options.max_request_bytes, oversized)) break;
    if (!oversized && line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ++report.requests;
    PendingReply reply;
    if (oversized) {
      reply.is_error = true;
      io::JsonValue id;  // the id sits somewhere inside the discarded line
      reply.error_text = encode_error_text(
          id, WireError{"request_too_large",
                        "serve request: line exceeds " +
                            std::to_string(options.max_request_bytes) + " bytes",
                        0.0});
      std::lock_guard lk(mu);
      ++errors;
    } else {
      try {
        obs::TracePtr trace;
        if (service.tracing_enabled()) {
          trace = std::make_shared<obs::Trace>();
        }
        io::JsonValue doc;
        WireRequest wire;
        {
          obs::ScopedSpan span("ingress.parse", trace.get(), parse_hist);
          doc = io::json_parse(line);
          wire = parse_request(doc, defaults);
        }
        wire.request.trace = std::move(trace);
        reply.id = wire.id;
        reply.return_field = wire.return_field;
        reply.future = service.submit(std::move(wire.request));
      } catch (const std::exception& e) {
        reply.is_error = true;
        io::JsonValue id;  // null: the id may not even have parsed
        reply.error_text =
            encode_error_text(id, WireError{"bad_request", e.what(), 0.0});
        std::lock_guard lk(mu);
        ++errors;
      }
    }
    {
      std::unique_lock lk(mu);
      cv_space.wait(lk, [&] { return queue.size() < window; });
      queue.push_back(std::move(reply));
    }
    cv_items.notify_one();
  }
  {
    std::lock_guard lk(mu);
    done_reading = true;
  }
  cv_items.notify_all();
  writer.join();
  report.errors = errors;
  if (log != nullptr && obs::log_enabled(obs::LogLevel::Info)) {
    obs::log_to(log, obs::LogLevel::Info, "serve",
                "stream closed: " + std::to_string(report.requests) +
                    " request(s), " + std::to_string(report.errors) +
                    " error(s)" + (stopping() ? " (shutdown drain)" : ""));
  }
  return report;
}

}  // namespace maps::serve
