#include "net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "harness.hpp"

namespace perfbench {

std::string http_request(const std::string& method, const std::string& target,
                         const std::string& body) {
  std::string out = method + " " + target + " HTTP/1.1\r\nHost: bench\r\n";
  if (method == "POST" || !body.empty()) {
    out += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

namespace {

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("connect: " + std::string(std::strerror(err)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Case-insensitive header lookup inside a response head.
long content_length(const std::string& head) {
  static const char kName[] = "content-length:";
  for (std::size_t i = 0; i + sizeof(kName) - 1 <= head.size(); ++i) {
    if (strncasecmp(head.c_str() + i, kName, sizeof(kName) - 1) == 0 &&
        (i == 0 || head[i - 1] == '\n')) {
      return std::strtol(head.c_str() + i + sizeof(kName) - 1, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

struct Client::Conn {
  int fd = -1;
  bool dead = false;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_off = 0;
  std::deque<Reply> pending;  // in request order
  // Bytes of the requests queued so far; a request is fully written once
  // the socket has taken that many bytes.
  std::deque<std::size_t> write_marks;
  std::size_t written_total = 0;
  std::size_t queued_total = 0;
};

Client::Client(int port, int connections) {
  for (int i = 0; i < connections; ++i) {
    auto c = std::make_unique<Conn>();
    c->fd = connect_loopback(port);
    conns_.push_back(std::move(c));
  }
}

Client::~Client() {
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
}

std::size_t Client::outstanding() const {
  std::size_t n = 0;
  for (const auto& c : conns_) n += c->pending.size();
  return n;
}

bool Client::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    c.out_off += static_cast<std::size_t>(n);
    c.written_total += static_cast<std::size_t>(n);
  }
  const double t = now_ms();
  std::size_t idx = c.pending.size() - c.write_marks.size();
  while (!c.write_marks.empty() && c.write_marks.front() <= c.written_total) {
    c.pending[idx++].written_ms = t;
    c.write_marks.pop_front();
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  return true;
}

void Client::send(int tag, const std::string& bytes, int conn) {
  if (conn < 0) {
    std::size_t best = SIZE_MAX;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (!conns_[i]->dead && conns_[i]->pending.size() < best) {
        best = conns_[i]->pending.size();
        conn = static_cast<int>(i);
      }
    }
    if (conn < 0) conn = 0;  // every connection dead: the send fails below
  }
  Conn& c = *conns_[static_cast<std::size_t>(conn)];
  Reply r;
  r.tag = tag;
  r.sent_ms = now_ms();
  c.pending.push_back(std::move(r));
  c.out += bytes;
  c.queued_total += bytes.size();
  c.write_marks.push_back(c.queued_total);
  if (!c.dead && !flush(c)) c.dead = true;
}

void Client::fail_conn(Conn& c, const std::function<void(Reply&)>& on_reply) {
  c.dead = true;
  if (c.fd >= 0) ::close(c.fd);
  c.fd = -1;
  while (!c.pending.empty()) {
    Reply r = std::move(c.pending.front());
    c.pending.pop_front();
    r.failed = true;
    r.done_ms = now_ms();
    on_reply(r);
  }
  c.write_marks.clear();
}

void Client::poll_once(double timeout_ms, const std::function<void(Reply&)>& on_reply) {
  std::vector<pollfd> fds;
  std::vector<Conn*> owners;
  for (auto& c : conns_) {
    if (c->dead) {
      if (!c->pending.empty()) fail_conn(*c, on_reply);
      continue;
    }
    pollfd p{};
    p.fd = c->fd;
    p.events = POLLIN | (c->out.empty() ? 0 : POLLOUT);
    fds.push_back(p);
    owners.push_back(c.get());
  }
  if (fds.empty()) return;
  timespec ts{};
  timeout_ms = std::max(0.0, timeout_ms);
  ts.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
  ts.tv_nsec = static_cast<long>(std::fmod(timeout_ms, 1000.0) * 1e6);
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready <= 0) return;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    Conn& c = *owners[i];
    if (fds[i].revents & POLLOUT) {
      if (!flush(c)) {
        fail_conn(c, on_reply);
        continue;
      }
    }
    if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    bool closed = false;
    for (;;) {
      char buf[1 << 16];
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        const double t = now_ms();
        if (c.in_off == c.in.size() && !c.pending.empty() && c.pending.front().first_byte_ms == 0.0) {
          c.pending.front().first_byte_ms = t;
        }
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) closed = true;
      else if (errno == EINTR) continue;
      else if (errno != EAGAIN && errno != EWOULDBLOCK) closed = true;
      break;
    }
    const double t = now_ms();
    // Deliver every complete reply in the buffer.
    while (!c.pending.empty()) {
      const std::size_t head_end = c.in.find("\r\n\r\n", c.in_off);
      if (head_end == std::string::npos) break;
      const std::string head = c.in.substr(c.in_off, head_end - c.in_off);
      const std::size_t total = head_end + 4 + static_cast<std::size_t>(content_length(head));
      if (c.in.size() < total) break;
      Reply r = std::move(c.pending.front());
      c.pending.pop_front();
      if (r.first_byte_ms == 0.0) r.first_byte_ms = t;
      r.status = head.size() > 12 ? std::atoi(head.c_str() + 9) : 0;
      r.body.assign(c.in, head_end + 4, total - head_end - 4);
      r.done_ms = t;
      c.in_off = total;
      if (!c.pending.empty() && c.in_off < c.in.size()) c.pending.front().first_byte_ms = t;
      on_reply(r);
    }
    if (c.in_off == c.in.size()) {
      c.in.clear();
      c.in_off = 0;
    } else if (c.in_off > (1u << 20)) {
      c.in.erase(0, c.in_off);
      c.in_off = 0;
    }
    if (closed) fail_conn(c, on_reply);
  }
}

Reply http_call(int port, const std::string& method, const std::string& target,
                const std::string& body) {
  Client client(port, 1);
  Reply out;
  bool got = false;
  client.send(0, http_request(method, target, body), 0);
  const double deadline = now_ms() + 60000.0;
  while (!got && now_ms() < deadline) {
    client.poll_once(100.0, [&](Reply& r) {
      out = std::move(r);
      got = true;
    });
  }
  if (!got) out.failed = true;
  return out;
}

// ------------------------------------------------------------ server process

ServerProcess::ServerProcess(const std::string& cli, const std::string& config_path,
                             const std::string& log_path) {
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The server must not outlive the benchmark, whatever happens to it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int null_fd = ::open("/dev/null", O_RDWR);
    if (log_fd < 0 || null_fd < 0) ::_exit(127);
    ::dup2(null_fd, 0);
    ::dup2(null_fd, 1);
    ::dup2(log_fd, 2);
    const char* argv[] = {cli.c_str(), "serve", config_path.c_str(), "--http", nullptr};
    ::execv(cli.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  // The server logs "http listening on <addr>:<port>" once bound.
  const double deadline = now_ms() + 60000.0;
  static const std::string kMarker = "http listening on ";
  while (now_ms() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      std::ifstream log(log_path);
      std::stringstream ss;
      ss << log.rdbuf();
      throw std::runtime_error("server exited during start-up: " + ss.str());
    }
    std::ifstream log(log_path);
    std::string line;
    while (std::getline(log, line)) {
      const std::size_t at = line.find(kMarker);
      if (at == std::string::npos) continue;
      const std::size_t colon = line.find(':', at + kMarker.size());
      if (colon != std::string::npos) port_ = std::atoi(line.c_str() + colon + 1);
    }
    if (port_ > 0) return;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  stop();
  throw std::runtime_error("server did not start listening within 60 s");
}

ServerProcess::~ServerProcess() { stop(); }

double ServerProcess::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const double deadline = now_ms() + 15000.0;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_ms() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

double self_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench
