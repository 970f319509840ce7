#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <istream>
#include <list>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#include "net/listener.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/deadline.hpp"
#include "runtime/fault.hpp"

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
          obs::ScopedSpan span("ingress.parse", trace.get(),
                               &obs::registry().histogram("serve.ingress.parse_ms"));
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

namespace {

/// Minimal bidirectional streambuf over a connected socket fd.
class FdStreamBuf final : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setg(in_.data(), in_.data(), in_.data());
    setp(out_.data(), out_.data() + out_.size());
  }
  ~FdStreamBuf() override { sync(); }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    // Chaos hook: an armed "serve.tcp.read" io fault models the peer
    // vanishing mid-request (reads hit EOF from then on).
    if (runtime::fault::point("serve.tcp.read")) return traits_type::eof();
    ssize_t n;
    do {
      n = ::read(fd_, in_.data(), in_.size());
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(in_.data(), in_.data(), in_.data() + n);
    return traits_type::to_int_type(*gptr());
  }

  int_type overflow(int_type ch) override {
    if (flush_out() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return flush_out(); }

 private:
  int flush_out() {
    const char* p = pbase();
    std::size_t left = static_cast<std::size_t>(pptr() - pbase());
    if (left > 0 && runtime::fault::point("serve.tcp.write")) return -1;
    while (left > 0) {
      // MSG_NOSIGNAL: a peer that closed mid-reply must surface as EPIPE
      // here (the writer logs and drains), not as a process-killing SIGPIPE.
      const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return -1;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    setp(out_.data(), out_.data() + out_.size());
    return 0;
  }

  int fd_;
  std::array<char, 1 << 14> in_;
  std::array<char, 1 << 14> out_;
};

}  // namespace

void serve_tcp(PredictionService& service, const WireDefaults& defaults, int port,
               std::ostream* log, int max_connections,
               std::atomic<int>* bound_port, const StreamOptions& options) {
  const int listener = net::make_listener(options.bind_address, port, 16);
  if (bound_port != nullptr) bound_port->store(net::listener_port(listener));
  obs::log_to(log, obs::LogLevel::Info, "serve",
              "listening on " + options.bind_address + ":" +
                  std::to_string(net::listener_port(listener)));

  // Handler threads each buffer their connection's log lines and flush them
  // whole under log_mu, so concurrent connections cannot interleave writes
  // on the shared log stream. Finished threads are reaped on every accept so
  // a long-lived server doesn't accumulate joinable-but-done threads. A list
  // keeps the slot-then-spawn sequence exception-safe: a failed spawn pops
  // the empty slot and refuses one connection instead of unwinding past
  // joinable threads (std::terminate).
  struct Handler {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
    int fd = -1;
  };
  std::list<Handler> handlers;
  std::mutex log_mu;
  const auto stopping = [&options] {
    return options.stop != nullptr && options.stop->load();
  };
  const auto reap = [&handlers](bool all) {
    for (auto it = handlers.begin(); it != handlers.end();) {
      if (all || it->done->load()) {
        it->thread.join();
        it = handlers.erase(it);
      } else {
        ++it;
      }
    }
  };
  for (int served = 0; max_connections < 0 || served < max_connections; ++served) {
    if (stopping()) break;
    int conn;
    do {
      conn = ::accept(listener, nullptr, nullptr);
      // A signal (SIGTERM/SIGINT installed without SA_RESTART) interrupts
      // the blocking accept; re-check the stop flag before retrying.
    } while (conn < 0 && errno == EINTR && !stopping());
    if (conn < 0) break;
    reap(/*all=*/false);
    try {
      auto done = std::make_shared<std::atomic<bool>>(false);
      handlers.push_back({std::thread{}, done, conn});
      handlers.back().thread =
          std::thread([&service, &defaults, log, &log_mu, conn, done, &options] {
            FdStreamBuf buf(conn);
            std::istream in(&buf);
            std::ostream out(&buf);
            std::ostringstream conn_log;
            serve_stream(service, defaults, in, out,
                         log != nullptr ? &conn_log : nullptr, options);
            ::close(conn);
            if (log != nullptr) {
              std::lock_guard lk(log_mu);
              *log << conn_log.str();
            }
            done->store(true);
          });
    } catch (...) {
      // Thread or allocation exhaustion: drop this connection, keep serving.
      if (!handlers.empty() && !handlers.back().thread.joinable()) {
        handlers.pop_back();
      }
      ::close(conn);
      if (log != nullptr) {
        std::lock_guard lk(log_mu);
        obs::log_to(log, obs::LogLevel::Warn, "serve",
                    "refusing connection: handler spawn failed");
      }
    }
  }
  ::close(listener);
  if (stopping()) {
    // Graceful drain: wake every connection's reader (EOF on its next read)
    // so each stream drains in-flight replies under the drain deadline.
    for (auto& h : handlers) ::shutdown(h.fd, SHUT_RD);
    if (log != nullptr) {
      std::lock_guard lk(log_mu);
      obs::log_to(log, obs::LogLevel::Info, "serve",
                  "shutdown requested: draining " +
                      std::to_string(handlers.size()) + " connection(s)");
    }
  }
  reap(/*all=*/true);
}

}  // namespace maps::serve
