// Loopback HTTP/1.1 client and server-process control for the benchmark.
//
// The client is single-threaded: one poll loop drives up to `nproc`
// keep-alive connections, requests may be pipelined, and replies are matched
// to requests in order per connection (the server answers pipelined requests
// in request order). Replies carry the times the benchmark's client spans
// need: request fully written, first reply byte, last reply byte.
#pragma once

#include <sys/types.h>

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Reply {
  int tag = -1;
  bool failed = false;   // connection error before a full reply arrived
  int status = 0;
  std::string body;
  double sent_ms = 0.0;        // request handed to the client
  double written_ms = 0.0;     // last request byte written to the socket
  double first_byte_ms = 0.0;  // first reply byte read
  double done_ms = 0.0;        // last reply byte read
};

std::string http_request(const std::string& method, const std::string& target,
                         const std::string& body = "");

class Client {
 public:
  Client(int port, int connections);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Queue one request (full HTTP bytes) on connection `conn`, or on the
  /// connection with the fewest outstanding requests when conn < 0.
  void send(int tag, const std::string& bytes, int conn = -1);
  /// Wait up to `timeout_ms` for socket activity once and deliver every
  /// completed reply.
  void poll_once(double timeout_ms, const std::function<void(Reply&)>& on_reply);
  std::size_t outstanding() const;
  int connections() const { return static_cast<int>(conns_.size()); }

 private:
  struct Conn;
  void fail_conn(Conn& c, const std::function<void(Reply&)>& on_reply);
  bool flush(Conn& c);
  std::vector<std::unique_ptr<Conn>> conns_;
};

/// One blocking request on a fresh connection (set-up, scrapes, job polls).
Reply http_call(int port, const std::string& method, const std::string& target,
                const std::string& body = "");

/// A `maps_cli serve` child process serving HTTP on a free loopback port.
class ServerProcess {
 public:
  /// Starts the server and waits until it listens (throws on failure).
  ServerProcess(const std::string& cli, const std::string& config_path,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  /// Peak resident set of the server so far (VmHWM), in MB.
  double peak_rss_mb() const;
  /// SIGTERM, wait for the drain, SIGKILL after 15 s. Idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Peak resident set (VmHWM) of this process, in MB.
double self_peak_rss_mb();

}  // namespace perfbench
