#include "serve/http_server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <ostream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "net/http.hpp"
#include "net/listener.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/deadline.hpp"
#include "runtime/fault.hpp"
#include "serve/jobs.hpp"

namespace maps::serve {

namespace {

using io::JsonValue;

int status_for(const std::string& code) {
  if (code == "bad_request") return 400;
  if (code == "not_found") return 404;
  if (code == "method_not_allowed") return 405;
  if (code == "not_ready") return 409;
  if (code == "request_too_large") return 413;
  if (code == "overloaded") return 429;
  if (code == "breaker_open" || code == "shutting_down") return 503;
  if (code == "deadline_exceeded") return 504;
  return 500;
}

/// Jobs-route exceptions onto wire errors: admission shed -> 429 (with
/// Retry-After), unknown id -> 404, result-before-terminal -> 409, anything
/// else (spec parse/validation) -> 400.
WireError classify_jobs_error(std::exception_ptr error) {
  try {
    std::rethrow_exception(std::move(error));
  } catch (const OverloadedError& e) {
    return WireError{"overloaded", e.what(), e.retry_after_ms};
  } catch (const JobNotFound& e) {
    return WireError{"not_found", e.what(), 0.0};
  } catch (const JobNotReady& e) {
    return WireError{"not_ready", e.what(), 0.0};
  } catch (const std::exception& e) {
    return WireError{"bad_request", e.what(), 0.0};
  } catch (...) {
    return WireError{"internal", "unknown error", 0.0};
  }
}

/// Retry-After is whole seconds on the wire; round the backlog estimate up
/// so "retry after 0s" never happens.
std::string retry_after_seconds(double retry_after_ms) {
  const auto secs =
      static_cast<long long>((std::max(retry_after_ms, 1.0) + 999.0) / 1000.0);
  return std::to_string(secs);
}

/// One reply in a connection's in-order pipeline. Created on the loop thread
/// when the request parses; filled (bytes + ready) on the loop thread when
/// the answer arrives. Pipelined requests answer strictly in slot order.
struct Slot {
  bool ready = false;
  bool close_after = false;
  std::string bytes;
  /// Echoed as X-Request-Id on the reply (client-supplied or generated) so
  /// a probe failure seen by a load balancer joins against server logs.
  std::string request_id;
};

/// Per-connection state. Owned by the loop thread; worker threads never
/// touch a Conn — they post closures that do.
struct Conn {
  explicit Conn(int fd_in, net::HttpLimits limits) : fd(fd_in), parser(limits) {}
  int fd = -1;
  net::ByteBuffer in;
  net::ByteBuffer out;
  net::HttpParser parser;
  std::deque<std::shared_ptr<Slot>> slots;
  bool closed = false;
  bool eof = false;          // peer half-closed, or server draining
  bool read_paused = false;  // pipeline window / write backlog backpressure
  bool want_write = false;
  bool close_when_drained = false;  // close once `out` flushes
};

/// Write backlog (bytes) past which the connection stops reading until the
/// peer drains replies — a slow reader cannot balloon server memory.
constexpr std::size_t kOutBufferCap = 4u << 20;

class HttpServer {
 public:
  HttpServer(PredictionService& service, const WireDefaults& defaults,
             const HttpOptions& options, std::ostream* log)
      : service_(service),
        defaults_(defaults),
        options_(options),
        jobs_(options.jobs),
        log_(log),
        hist_parse_ms_(&obs::registry().histogram("serve.ingress.parse_ms")) {
    limits_.max_header_bytes = options_.max_header_bytes;
    limits_.max_body_bytes = options_.stream.max_request_bytes > 0
                                 ? options_.stream.max_request_bytes
                                 : std::numeric_limits<std::size_t>::max();
    if (options_.stream.conn_max_inflight > 0) {
      window_ = std::max<std::size_t>(
          1, std::min(window_, options_.stream.conn_max_inflight));
    }
  }

  HttpServeReport run(std::atomic<int>* bound_port) {
    listener_fd_ = net::make_listener(options_.bind_address, options_.port,
                                      options_.backlog);
    net::set_nonblocking(listener_fd_);
    const int port = net::listener_port(listener_fd_);
    if (bound_port != nullptr) bound_port->store(port);
    obs::log_to(log_, obs::LogLevel::Info, "serve",
                "http listening on " + options_.bind_address + ":" +
                    std::to_string(port));
    loop_.add_fd(listener_fd_, net::EventLoop::kRead,
                 [this](std::uint32_t) { on_accept(); });
    loop_.run([this] { tick(); }, options_.tick_ms);

    // The loop is stopped but TaskQueue workers may still be finishing
    // predictions whose completions post into this loop. Wait them out so
    // no completion ever touches a destroyed loop; their queued closures
    // are simply discarded.
    while (outstanding_.load() != 0) std::this_thread::yield();

    for (int fd : conn_fds()) close_conn(conns_.at(fd));
    if (listener_fd_ >= 0) ::close(listener_fd_);

    HttpServeReport report;
    report.requests = requests_.load();
    report.errors = errors_.load();
    report.connections = connections_;
    obs::log_to(log_, obs::LogLevel::Info, "serve",
                "http closed: " + std::to_string(report.requests) +
                    " request(s), " + std::to_string(report.errors) +
                    " error(s), " + std::to_string(report.connections) +
                    " connection(s)");
    return report;
  }

 private:
  bool stopping() const {
    return options_.stream.stop != nullptr && options_.stream.stop->load();
  }

  std::vector<int> conn_fds() const {
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) fds.push_back(fd);
    return fds;
  }

  void tick() {
    if (stopping() && !draining_) {
      draining_ = true;
      drain_until_ =
          runtime::now_steady_ms() + options_.stream.drain_deadline_ms;
      // Long-running jobs journal their checkpoint and park at the next
      // step boundary; a restart re-adopts them via resume_journaled().
      if (jobs_ != nullptr) jobs_->drain();
      // Stop accepting, stop reading; in-flight replies drain below.
      loop_.remove_fd(listener_fd_);
      ::close(listener_fd_);
      listener_fd_ = -1;
      obs::log_to(log_, obs::LogLevel::Info, "serve",
                  "shutdown requested: draining " +
                      std::to_string(conns_.size()) + " connection(s)");
      for (int fd : conn_fds()) {
        const auto conn = conns_.at(fd);
        conn->eof = true;
        update_interest(conn);
        if (conn->slots.empty() && conn->out.empty()) close_conn(conn);
      }
    }
    if (draining_ &&
        (conns_.empty() || runtime::now_steady_ms() >= drain_until_)) {
      const std::size_t abandoned = conns_.size();
      for (int fd : conn_fds()) close_conn(conns_.at(fd));
      if (abandoned > 0) {
        errors_.fetch_add(abandoned);
        obs::log_to(log_, obs::LogLevel::Warn, "serve",
                    "drain deadline: dropped " + std::to_string(abandoned) +
                        " connection(s)");
      }
      loop_.stop();
    }
  }

  void on_accept() {
    for (;;) {
      const int fd = ::accept(listener_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN (drained) or transient accept failure: next event
      }
      if (draining_ || conns_.size() >= options_.max_connections) {
        ::close(fd);
        errors_.fetch_add(1);
        continue;
      }
      net::set_nonblocking(fd);
      auto conn = std::make_shared<Conn>(fd, limits_);
      conns_.emplace(fd, conn);
      ++connections_;
      loop_.add_fd(fd, net::EventLoop::kRead, [this, conn](std::uint32_t mask) {
        on_event(conn, mask);
      });
    }
  }

  void on_event(const std::shared_ptr<Conn>& conn, std::uint32_t mask) {
    if (conn->closed) return;
    try {
      if (mask & net::EventLoop::kWrite) flush(conn);
      if (conn->closed) return;
      if (mask & net::EventLoop::kRead) on_readable(conn);
    } catch (...) {
      // A connection's failure (including an armed `throw` chaos fault in
      // its read/write path) must never take the server down.
      errors_.fetch_add(1);
      close_conn(conn);
    }
  }

  void on_readable(const std::shared_ptr<Conn>& conn) {
    char buf[1 << 14];
    for (;;) {
      if (conn->eof || conn->read_paused) break;
      // Chaos hook: an armed "http.read" io fault models the peer vanishing
      // mid-request (EOF from then on).
      ssize_t n = runtime::fault::point("http.read")
                      ? 0
                      : ::read(conn->fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(conn);
        return;
      }
      if (n == 0) {
        // Peer half-closed. Replies already in the pipeline still go out;
        // the connection closes once everything flushes.
        conn->eof = true;
        update_interest(conn);
        if (conn->parser.mid_request() && conn->slots.empty() &&
            conn->out.empty()) {
          // Truncated request with nothing owed: just drop the connection.
          errors_.fetch_add(1);
          close_conn(conn);
          return;
        }
        break;
      }
      conn->in.append(buf, static_cast<std::size_t>(n));
    }
    if (!conn->closed) process_input(conn);
  }

  void process_input(const std::shared_ptr<Conn>& conn) {
    while (!conn->close_when_drained) {
      if (conn->slots.size() >= window_ || conn->out.size() > kOutBufferCap) {
        // Backpressure: park reads until the pipeline/write backlog drains.
        if (!conn->read_paused) {
          conn->read_paused = true;
          update_interest(conn);
        }
        break;
      }
      const net::HttpParser::Status st = conn->parser.feed(conn->in);
      if (st == net::HttpParser::Status::NeedMore) break;
      if (st == net::HttpParser::Status::Error) {
        requests_.fetch_add(1);
        errors_.fetch_add(1);
        const int status = conn->parser.error_status();
        const WireError err{
            status == 400 ? "bad_request" : "request_too_large",
            conn->parser.error_message(), 0.0};
        auto slot = push_slot(conn);
        slot->request_id = obs::next_request_id();
        fill_slot(slot, status, encode_error_text(JsonValue(), err),
                  /*keep_alive=*/false, {});
        // The byte stream is no longer trustworthy: reply, then close.
        conn->eof = true;
        update_interest(conn);
        break;
      }
      requests_.fetch_add(1);
      handle_request(conn, conn->parser.take_request());
    }
    pump(conn);
  }

  void handle_request(const std::shared_ptr<Conn>& conn, net::HttpRequest req) {
    // Request identity: honor a client-supplied X-Request-Id, else mint
    // one. Every slot pushed while this request routes echoes it back.
    const std::string* supplied = req.find_header("x-request-id");
    current_request_id_ = (supplied != nullptr && !supplied->empty())
                              ? *supplied
                              : obs::next_request_id();
    if (draining_) {
      reply_error(conn,
                  WireError{"shutting_down", "server draining", 0.0},
                  /*keep_alive=*/false);
      return;
    }
    // Every route lives under /v1: a bare path or another version is an
    // unknown target.
    if (req.target.rfind("/v1/", 0) != 0) {
      reply_error(conn,
                  WireError{"not_found",
                            "unknown target " + req.target +
                                " (the API is served under /v1)",
                            0.0},
                  req.keep_alive);
      return;
    }
    const std::string path = req.target.substr(3);
    if (path == "/predict") {
      if (req.method != "POST") {
        reply_error(conn,
                    WireError{"method_not_allowed",
                              req.target + " requires POST", 0.0},
                    req.keep_alive, {{"Allow", "POST"}});
        return;
      }
      auto slot = push_slot(conn);
      offload_predict(conn, slot, std::move(req.body), req.keep_alive);
      return;
    }
    if (path == "/metrics") {
      if (req.method != "GET") {
        reply_error(conn,
                    WireError{"method_not_allowed",
                              req.target + " requires GET", 0.0},
                    req.keep_alive, {{"Allow", "GET"}});
        return;
      }
      auto slot = push_slot(conn);
      fill_slot(slot, 200, metrics_text(service_, jobs_), req.keep_alive, {},
                "text/plain; version=0.0.4; charset=utf-8");
      return;
    }
    if (path == "/healthz" || path == "/stats") {
      if (req.method != "GET") {
        reply_error(conn,
                    WireError{"method_not_allowed",
                              req.target + " requires GET", 0.0},
                    req.keep_alive, {{"Allow", "GET"}});
        return;
      }
      auto slot = push_slot(conn);
      const auto [status, body] =
          path == "/healthz" ? healthz_reply()
                             : std::pair<int, std::string>{200, stats_body()};
      fill_slot(slot, status, body, req.keep_alive, {});
      return;
    }
    if (path == "/jobs" || path.rfind("/jobs/", 0) == 0) {
      handle_jobs(conn, req, path);
      return;
    }
    reply_error(conn,
                WireError{"not_found", "unknown target " + req.target, 0.0},
                req.keep_alive);
  }

  /// The /v1/jobs routes. JobManager calls are mutex-guarded bookkeeping
  /// (submit validates the spec but never steps), so they run inline on the
  /// loop thread like the other control-plane endpoints.
  void handle_jobs(const std::shared_ptr<Conn>& conn,
                   const net::HttpRequest& req, const std::string& path) {
    if (jobs_ == nullptr) {
      reply_error(conn,
                  WireError{"not_found",
                            "jobs API disabled (serve with a jobs journal "
                            "dir to enable it)",
                            0.0},
                  req.keep_alive);
      return;
    }
    try {
      // Every JobManager call happens before push_slot: a thrown
      // JobNotFound/JobNotReady must not leave an unfillable slot at the
      // head of the connection's reply pipeline.
      if (path == "/jobs") {
        if (req.method == "POST") {
          const std::string id = jobs_->submit(io::json_parse(req.body));
          const std::string body = jobs_->status(id).dump();
          auto slot = push_slot(conn);
          // 202: the job is accepted, not finished; poll GET /v1/jobs/{id}.
          fill_slot(slot, 202, body, req.keep_alive, {});
          return;
        }
        if (req.method == "GET") {
          const std::string body = jobs_->list().dump();
          auto slot = push_slot(conn);
          fill_slot(slot, 200, body, req.keep_alive, {});
          return;
        }
        reply_error(conn,
                    WireError{"method_not_allowed",
                              req.target + " requires GET or POST", 0.0},
                    req.keep_alive, {{"Allow", "GET, POST"}});
        return;
      }
      const std::string rest = path.substr(6);  // past "/jobs/"
      const std::size_t slash = rest.find('/');
      const std::string id = rest.substr(0, slash);
      const std::string action =
          slash == std::string::npos ? std::string() : rest.substr(slash);
      if (action.empty() || action == "/result") {
        if (req.method != "GET") {
          reply_error(conn,
                      WireError{"method_not_allowed",
                                req.target + " requires GET", 0.0},
                      req.keep_alive, {{"Allow", "GET"}});
          return;
        }
        const std::string body = action.empty() ? jobs_->status(id).dump()
                                                : jobs_->result(id).dump();
        auto slot = push_slot(conn);
        fill_slot(slot, 200, body, req.keep_alive, {});
        return;
      }
      if (action == "/cancel") {
        if (req.method != "POST") {
          reply_error(conn,
                      WireError{"method_not_allowed",
                                req.target + " requires POST", 0.0},
                      req.keep_alive, {{"Allow", "POST"}});
          return;
        }
        const std::string body = jobs_->cancel(id).dump();
        auto slot = push_slot(conn);
        fill_slot(slot, 200, body, req.keep_alive, {});
        return;
      }
      reply_error(conn,
                  WireError{"not_found", "unknown target " + req.target, 0.0},
                  req.keep_alive);
    } catch (...) {
      reply_error(conn, classify_jobs_error(std::current_exception()),
                  req.keep_alive);
    }
  }

  std::string stats_body() {
    if (jobs_ == nullptr) return stats_to_json(service_.stats()).dump();
    const JobsStatsSnapshot snapshot = jobs_->stats();
    return stats_to_json(service_.stats(), &snapshot).dump();
  }

  std::pair<int, std::string> healthz_reply() {
    const auto model = service_.registry().active();
    const BreakerStats breaker = service_.breaker().stats();
    // stats().state, not allow(): a health probe must never consume the
    // breaker's half-open budget.
    const bool open = breaker.state == BreakerState::Open;
    const char* status = "ok";
    int code = 200;
    if (draining_) {
      status = "draining";
      code = 503;
    } else if (model == nullptr && open) {
      status = "unavailable";  // neither tier can answer
      code = 503;
    } else if (model == nullptr || open) {
      status = "degraded";  // one tier down, the other still answers
    }
    JsonValue v;
    v["breaker"] = breaker_state_name(breaker.state);
    v["model_loaded"] = model != nullptr;
    if (model != nullptr) {
      v["model"] = model->id;
      v["model_version"] = model->version;
    }
    if (jobs_ != nullptr) {
      const JobsStatsSnapshot snapshot = jobs_->stats();
      v["jobs_queued"] = snapshot.queued;
      v["jobs_running"] = snapshot.running;
    }
    v["status"] = status;
    return {code, v.dump()};
  }

  /// Dispatch a /predict body to the service's worker pool. The loop thread
  /// never parses bodies or waits on predictions; the finished reply is
  /// posted back and lands in `slot`.
  void offload_predict(const std::shared_ptr<Conn>& conn,
                       const std::shared_ptr<Slot>& slot, std::string body,
                       bool keep_alive) {
    outstanding_.fetch_add(1);
    try {
      (void)service_.task_queue().submit(
          [this, conn, slot, body = std::move(body), keep_alive]() -> int {
            predict_job(conn, slot, body, keep_alive);
            return 0;
          });
    } catch (...) {
      outstanding_.fetch_sub(1);
      errors_.fetch_add(1);
      fill_slot(slot, 500,
                encode_error_text(
                    JsonValue(),
                    WireError{"internal", "failed to queue request", 0.0}),
                /*keep_alive=*/false, {});
      pump(conn);
    }
  }

  /// Runs on a TaskQueue worker. Must not block on prediction futures (the
  /// queue's deadlock rule) — completions are subscribed instead.
  void predict_job(const std::shared_ptr<Conn>& conn,
                   const std::shared_ptr<Slot>& slot, const std::string& body,
                   bool keep_alive) {
    // Ingress trace: created here (not on the loop thread) so the untraced
    // path costs the loop nothing; the id ties the span tree to the
    // X-Request-Id the client sees.
    obs::TracePtr trace;
    if (service_.tracing_enabled()) {
      trace = std::make_shared<obs::Trace>(slot->request_id);
    }
    try {
      JsonValue doc;
      WireRequest wire;
      bool is_batch = false;
      {
        // The parse span covers the JSON document and (single-request
        // bodies) the eps/J grid decode — the real ingress byte-crunching.
        obs::ScopedSpan span("ingress.parse", trace.get(), hist_parse_ms_);
        doc = io::json_parse(body);
        is_batch = doc.is_array();
        if (!is_batch) wire = parse_request(doc, defaults_);
      }
      if (is_batch) {
        predict_batch(conn, slot, doc.as_array(), keep_alive);
      } else {
        wire.request.trace = trace;
        auto future = service_.submit(std::move(wire.request));
        auto id = std::make_shared<JsonValue>(std::move(wire.id));
        const bool return_field = wire.return_field;
        future.subscribe([this, conn, slot, keep_alive, future, id,
                          return_field]() mutable {
          int status = 200;
          std::string reply;
          std::vector<std::pair<std::string, std::string>> extra;
          try {
            reply = encode_response_text(*id, future.get(), return_field);
          } catch (...) {
            const WireError err = classify_error(std::current_exception());
            status = status_for(err.code);
            if (err.code == "overloaded") {
              extra.emplace_back("Retry-After",
                                 retry_after_seconds(err.retry_after_ms));
            }
            errors_.fetch_add(1);
            reply = encode_error_text(*id, err);
          }
          deliver(conn, slot, status, std::move(reply), keep_alive,
                  std::move(extra));
        });
      }
    } catch (const std::exception& e) {
      errors_.fetch_add(1);
      deliver(conn, slot, 400,
              encode_error_text(JsonValue(),
                                WireError{"bad_request", e.what(), 0.0}),
              keep_alive, {});
    }
  }

  /// JSON-array body: one wire request per element, answered as a JSON array
  /// in element order. Element failures are per-element error objects; the
  /// HTTP status stays 200 (the batch itself was well-formed).
  void predict_batch(const std::shared_ptr<Conn>& conn,
                     const std::shared_ptr<Slot>& slot,
                     const io::JsonArray& batch, bool keep_alive) {
    require(!batch.empty(), "serve request: empty batch");
    struct BatchState {
      std::vector<runtime::Future<ServeResponse>> futures;  // invalid = error
      std::vector<std::string> error_texts;
      std::vector<JsonValue> ids;
      std::vector<char> return_field;
      std::atomic<std::size_t> remaining{0};
    };
    auto state = std::make_shared<BatchState>();
    const std::size_t n = batch.size();
    state->futures.resize(n);
    state->error_texts.resize(n);
    state->ids.resize(n);
    state->return_field.assign(n, 1);

    std::size_t live = 0;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        WireRequest wire = parse_request(batch[i], defaults_);
        state->ids[i] = std::move(wire.id);
        state->return_field[i] = wire.return_field ? 1 : 0;
        if (service_.tracing_enabled()) {
          // One trace per element (suffixed id): element latencies differ,
          // so each gets its own slow-dump decision.
          wire.request.trace = std::make_shared<obs::Trace>(
              slot->request_id + "#" + std::to_string(i));
        }
        state->futures[i] = service_.submit(std::move(wire.request));
        ++live;
      } catch (const std::exception& e) {
        errors_.fetch_add(1);
        state->error_texts[i] = encode_error_text(
            state->ids[i], WireError{"bad_request", e.what(), 0.0});
      }
    }

    auto finalize = [this, conn, slot, keep_alive, state]() {
      std::string reply;
      reply.push_back('[');
      for (std::size_t i = 0; i < state->futures.size(); ++i) {
        if (i > 0) reply.push_back(',');
        if (!state->error_texts[i].empty()) {
          reply += state->error_texts[i];
        } else {
          try {
            reply += encode_response_text(state->ids[i], state->futures[i].get(),
                                          state->return_field[i] != 0);
          } catch (...) {
            errors_.fetch_add(1);
            reply += encode_error_text(
                state->ids[i], classify_error(std::current_exception()));
          }
        }
      }
      reply.push_back(']');
      deliver(conn, slot, 200, std::move(reply), keep_alive, {});
    };

    if (live == 0) {
      finalize();
      return;
    }
    state->remaining.store(live);
    for (std::size_t i = 0; i < n; ++i) {
      if (!state->futures[i].valid()) continue;
      state->futures[i].subscribe([state, finalize]() {
        if (state->remaining.fetch_sub(1) == 1) finalize();
      });
    }
  }

  /// Thread-safe terminal of every offloaded request: serialize the HTTP
  /// bytes, post them onto the loop thread, release the outstanding slot.
  void deliver(const std::shared_ptr<Conn>& conn,
               const std::shared_ptr<Slot>& slot, int status, std::string body,
               bool keep_alive,
               std::vector<std::pair<std::string, std::string>> extra = {}) {
    if (!slot->request_id.empty()) {
      extra.emplace_back("X-Request-Id", slot->request_id);
    }
    std::string bytes =
        net::http_response(status, "application/json", body, keep_alive, extra);
    loop_.post([this, conn, slot, bytes = std::move(bytes), keep_alive]() mutable {
      if (conn->closed) return;
      slot->bytes = std::move(bytes);
      slot->close_after = !keep_alive;
      slot->ready = true;
      pump(conn);
    });
    // Decrement only after the post: once outstanding_ reads zero, no new
    // closures can be in flight toward the loop.
    outstanding_.fetch_sub(1);
  }

  std::shared_ptr<Slot> push_slot(const std::shared_ptr<Conn>& conn) {
    auto slot = std::make_shared<Slot>();
    slot->request_id = current_request_id_;
    conn->slots.push_back(slot);
    return slot;
  }

  /// Loop thread: complete a slot in place (inline endpoints, parse errors).
  void fill_slot(const std::shared_ptr<Slot>& slot, int status,
                 const std::string& body, bool keep_alive,
                 std::vector<std::pair<std::string, std::string>> extra,
                 const char* content_type = "application/json") {
    if (!slot->request_id.empty()) {
      extra.emplace_back("X-Request-Id", slot->request_id);
    }
    slot->bytes = net::http_response(status, content_type, body, keep_alive, extra);
    slot->close_after = !keep_alive;
    slot->ready = true;
  }

  void reply_error(const std::shared_ptr<Conn>& conn, const WireError& err,
                   bool keep_alive,
                   std::vector<std::pair<std::string, std::string>> extra = {}) {
    errors_.fetch_add(1);
    if (err.code == "overloaded") {
      extra.emplace_back("Retry-After", retry_after_seconds(err.retry_after_ms));
    }
    auto slot = push_slot(conn);
    fill_slot(slot, status_for(err.code), encode_error_text(JsonValue(), err),
              keep_alive, extra);
  }

  /// Move ready head slots into the write buffer, in request order, then
  /// flush. A close_after slot seals the connection: later pipelined slots
  /// are dropped (the peer asked for the close).
  void pump(const std::shared_ptr<Conn>& conn) {
    if (conn->closed) return;
    while (!conn->close_when_drained && !conn->slots.empty() &&
           conn->slots.front()->ready) {
      const auto slot = conn->slots.front();
      conn->slots.pop_front();
      conn->out.append(slot->bytes);
      if (slot->close_after) {
        conn->close_when_drained = true;
        conn->slots.clear();
        conn->eof = true;
      }
    }
    flush(conn);
    if (conn->closed) return;
    // Reads resume once the pipeline window and write backlog have room.
    if (conn->read_paused && !conn->eof && conn->slots.size() < window_ &&
        conn->out.size() <= kOutBufferCap) {
      conn->read_paused = false;
      update_interest(conn);
      process_input(conn);
    }
  }

  void flush(const std::shared_ptr<Conn>& conn) {
    if (conn->closed) return;
    while (!conn->out.empty()) {
      // Chaos hook: an armed "http.write" io fault models the peer closing
      // mid-reply (EPIPE without the syscall).
      if (runtime::fault::point("http.write")) {
        errors_.fetch_add(1);
        close_conn(conn);
        return;
      }
      const std::string_view view = conn->out.readable();
      const ssize_t n = ::send(conn->fd, view.data(), view.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn->out.consume(static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn->want_write) {
          conn->want_write = true;
          update_interest(conn);
        }
        return;
      }
      errors_.fetch_add(1);  // peer went away mid-reply
      close_conn(conn);
      return;
    }
    if (conn->want_write) {
      conn->want_write = false;
      update_interest(conn);
    }
    if (conn->close_when_drained || (conn->eof && conn->slots.empty())) {
      close_conn(conn);
    }
  }

  void update_interest(const std::shared_ptr<Conn>& conn) {
    if (conn->closed) return;
    std::uint32_t mask = 0;
    if (!conn->eof && !conn->read_paused) mask |= net::EventLoop::kRead;
    if (conn->want_write) mask |= net::EventLoop::kWrite;
    loop_.set_interest(conn->fd, mask);
  }

  void close_conn(const std::shared_ptr<Conn>& conn) {
    if (conn->closed) return;
    conn->closed = true;
    loop_.remove_fd(conn->fd);
    ::close(conn->fd);
    conns_.erase(conn->fd);
  }

  PredictionService& service_;
  const WireDefaults& defaults_;
  const HttpOptions& options_;
  JobManager* jobs_;
  std::ostream* log_;
  obs::Histogram* hist_parse_ms_;
  net::EventLoop loop_;
  net::HttpLimits limits_;
  std::size_t window_ = kDefaultConnMaxInflight;
  int listener_fd_ = -1;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  bool draining_ = false;
  double drain_until_ = 0.0;
  std::size_t connections_ = 0;
  /// Request id of the request currently being routed on the loop thread;
  /// push_slot copies it into the slot it creates.
  std::string current_request_id_;
  std::atomic<std::size_t> requests_{0};
  std::atomic<std::size_t> errors_{0};
  /// Predict jobs whose completion has not yet been posted to the loop.
  std::atomic<int> outstanding_{0};
};

}  // namespace

HttpServeReport serve_http(PredictionService& service,
                           const WireDefaults& defaults,
                           const HttpOptions& options, std::ostream* log,
                           std::atomic<int>* bound_port) {
  HttpServer server(service, defaults, options, log);
  return server.run(bound_port);
}

}  // namespace maps::serve
