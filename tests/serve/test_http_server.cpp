// HTTP/1.1 front end: endpoints, keep-alive pipelining, protocol-edge
// rejections, slow-loris isolation, in-flight request coalescing, the
// 1000-idle-connection scalability floor, and graceful drain.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fdfd/source.hpp"
#include "io/json.hpp"
#include "math/rng.hpp"
#include "runtime/fault.hpp"
#include "runtime/task_queue.hpp"
#include "serve/http_server.hpp"
#include "serve/jobs.hpp"

namespace {

using namespace maps;
namespace fault = maps::runtime::fault;

constexpr index_t kN = 16;

struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    fault::disarm_all();
    if (!spec.empty()) fault::arm_from_spec(spec);
  }
  ~FaultGuard() {
    fault::disarm_all();
    if (const char* env = std::getenv("MAPS_FAULTS")) {
      if (env[0] != '\0') fault::arm_from_spec(env);
    }
  }
};

nn::ModelConfig tiny_model_config() {
  nn::ModelConfig cfg;
  cfg.kind = nn::ModelKind::Fno;
  cfg.in_channels = 4;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.modes = 2;
  cfg.depth = 1;
  return cfg;
}

std::shared_ptr<serve::ModelRegistry> tiny_registry() {
  auto registry = std::make_shared<serve::ModelRegistry>();
  const auto cfg = tiny_model_config();
  registry->install("tiny-fno", cfg, nn::make_model(cfg));
  return registry;
}

serve::ServeOptions small_options() {
  serve::ServeOptions o;
  o.workers = 1;
  o.cache_capacity = 0;
  return o;
}

serve::WireDefaults test_defaults() {
  serve::WireDefaults d;
  d.dl = 0.4;
  d.pml.ncells = 3;
  return d;
}

std::string predict_body(int id, double eps_fill,
                         const std::string& extra = "") {
  std::ostringstream os;
  os << "{\"id\": " << id << ", \"nx\": " << kN << ", \"ny\": " << kN
     << ", \"eps\": [";
  for (index_t n = 0; n < kN * kN; ++n) os << (n == 0 ? "" : ",") << eps_fill;
  os << "]" << extra << "}";
  return os.str();
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string http_request(const std::string& method, const std::string& target,
                         const std::string& body = "",
                         const std::string& extra_headers = "") {
  std::ostringstream os;
  os << method << " " << target << " HTTP/1.1\r\nHost: t\r\n" << extra_headers;
  if (!body.empty() || method == "POST") {
    os << "Content-Length: " << body.size() << "\r\n";
  }
  os << "\r\n" << body;
  return os.str();
}

struct HttpReply {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  const std::string* header(const std::string& name) const {
    for (const auto& [k, v] : headers) {
      if (k.size() == name.size() &&
          std::equal(k.begin(), k.end(), name.begin(), [](char a, char b) {
            return std::tolower(static_cast<unsigned char>(a)) ==
                   std::tolower(static_cast<unsigned char>(b));
          })) {
        return &v;
      }
    }
    return nullptr;
  }
};

/// Minimal blocking HTTP client: one fd, buffered reads, Content-Length
/// framing (the server always sends one).
struct HttpClient {
  int fd = -1;
  std::string buf;

  explicit HttpClient(int port) : fd(connect_loopback(port)) {}
  ~HttpClient() { close(); }
  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  bool send_raw(const std::string& bytes) const {
    return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Reads one response; returns false on EOF/parse trouble.
  bool read_reply(HttpReply& out) {
    const auto read_more = [&]() -> bool {
      char tmp[4096];
      const ssize_t n = ::read(fd, tmp, sizeof(tmp));
      if (n <= 0) return false;
      buf.append(tmp, static_cast<std::size_t>(n));
      return true;
    };
    std::size_t head_end;
    while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
      if (!read_more()) return false;
    }
    const std::string head = buf.substr(0, head_end);
    std::istringstream hs(head);
    std::string line;
    std::getline(hs, line);  // "HTTP/1.1 200 OK\r"
    if (line.size() < 12 || line.compare(0, 5, "HTTP/") != 0) return false;
    out.status = std::atoi(line.c_str() + 9);
    out.headers.clear();
    while (std::getline(hs, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.erase(0, 1);
      out.headers.emplace_back(line.substr(0, colon), value);
    }
    std::size_t content_length = 0;
    if (const std::string* cl = out.header("Content-Length")) {
      content_length = static_cast<std::size_t>(std::atoll(cl->c_str()));
    }
    const std::size_t total = head_end + 4 + content_length;
    while (buf.size() < total) {
      if (!read_more()) return false;
    }
    out.body = buf.substr(head_end + 4, content_length);
    buf.erase(0, total);
    return true;
  }

  /// EOF probe: true once the server has closed the connection.
  bool at_eof() const {
    char c;
    return ::recv(fd, &c, 1, 0) == 0;
  }
};

/// A running serve_http instance on its own thread, port 0.
struct HttpHarness {
  serve::PredictionService service;
  serve::WireDefaults defaults = test_defaults();
  std::atomic<bool> stop{false};
  std::atomic<int> port{0};
  serve::HttpServeReport report;
  std::thread thread;

  explicit HttpHarness(serve::ServeOptions options,
                       serve::HttpOptions http = {})
      : service(tiny_registry(), options) {
    http.stream.stop = &stop;
    thread = std::thread([this, http] {
      report = serve::serve_http(service, defaults, http, nullptr, &port);
    });
    while (port.load() == 0) std::this_thread::yield();
  }

  ~HttpHarness() { shutdown(); }
  void shutdown() {
    stop.store(true);
    if (thread.joinable()) thread.join();
  }
};

std::size_t thread_count() {
  std::size_t n = 0;
  std::ifstream stat("/proc/self/stat");
  std::string tok;
  // Field 20 of /proc/self/stat is num_threads; field 2 (comm) may hold
  // spaces, so count from the closing paren instead of splitting naively.
  std::getline(stat, tok);
  const auto paren = tok.rfind(')');
  std::istringstream rest(tok.substr(paren + 2));
  std::string field;
  for (int i = 3; i <= 20 && (rest >> field); ++i) {
    if (i == 20) n = static_cast<std::size_t>(std::atoll(field.c_str()));
  }
  return n;
}

}  // namespace

// --- endpoints ---------------------------------------------------------------

TEST(HttpServe, PredictHealthzStatsRoundTrip) {
  FaultGuard guard("");
  HttpHarness h(small_options());
  HttpClient client(h.port.load());
  ASSERT_GE(client.fd, 0);

  // Single predict.
  ASSERT_TRUE(client.send_raw(
      http_request("POST", "/v1/predict",
                   predict_body(7, 2.5, ", \"return_field\": false"))));
  HttpReply reply;
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  {
    const auto doc = io::json_parse(reply.body);
    EXPECT_TRUE(doc.at("ok").as_bool());
    EXPECT_EQ(doc.at("id").as_int(), 7);
    EXPECT_EQ(doc.at("source").as_string(), "surrogate");
  }

  // Batch predict: JSON array in, JSON array out, element order preserved,
  // per-element errors inline (HTTP status stays 200).
  const std::string batch = "[" + predict_body(1, 2.0) + "," +
                            "{\"id\": 2, \"nx\": 0}" + "," +
                            predict_body(3, 3.0) + "]";
  ASSERT_TRUE(client.send_raw(http_request("POST", "/v1/predict", batch)));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  {
    const auto doc = io::json_parse(reply.body);
    ASSERT_TRUE(doc.is_array());
    ASSERT_EQ(doc.as_array().size(), 3u);
    EXPECT_TRUE(doc.as_array()[0].at("ok").as_bool());
    EXPECT_FALSE(doc.as_array()[1].at("ok").as_bool());
    EXPECT_EQ(doc.as_array()[1].at("error").at("code").as_string(),
              "bad_request");
    EXPECT_TRUE(doc.as_array()[2].at("ok").as_bool());
    EXPECT_EQ(doc.as_array()[2].at("id").as_int(), 3);
  }

  // Healthz: model loaded, breaker closed -> ok.
  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/healthz")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  {
    const auto doc = io::json_parse(reply.body);
    EXPECT_EQ(doc.at("status").as_string(), "ok");
    EXPECT_TRUE(doc.at("model_loaded").as_bool());
    EXPECT_EQ(doc.at("model").as_string(), "tiny-fno");
    EXPECT_EQ(doc.at("breaker").as_string(), "closed");
  }

  // Stats: the ServeStats wire document, including the coalesced counter.
  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/stats")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  {
    const auto doc = io::json_parse(reply.body);
    EXPECT_GE(doc.at("requests").as_int(), 3);
    EXPECT_TRUE(doc.has("coalesced"));
    EXPECT_TRUE(doc.has("surrogate_requests"));
  }

  // Unknown target and wrong methods carry the structured envelope.
  ASSERT_TRUE(client.send_raw(http_request("GET", "/nope")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 404);
  EXPECT_EQ(io::json_parse(reply.body).at("error").at("code").as_string(),
            "not_found");

  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/predict")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 405);
  ASSERT_NE(reply.header("Allow"), nullptr);
  EXPECT_EQ(*reply.header("Allow"), "POST");

  ASSERT_TRUE(client.send_raw(http_request("POST", "/v1/healthz")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 405);
  ASSERT_NE(reply.header("Allow"), nullptr);
  EXPECT_EQ(*reply.header("Allow"), "GET");

  client.close();
  h.shutdown();
  EXPECT_GE(h.report.requests, 7u);
  EXPECT_EQ(h.report.connections, 1u);
}

// --- keep-alive + pipelining -------------------------------------------------

TEST(HttpServe, PipelinedRequestsAnswerInOrder) {
  FaultGuard guard("");
  HttpHarness h(small_options());
  HttpClient client(h.port.load());
  ASSERT_GE(client.fd, 0);

  // Three requests in one write; the slow /predict answers must not let the
  // instant /healthz overtake them.
  std::string wire =
      http_request("POST", "/v1/predict",
                   predict_body(1, 2.0, ", \"return_field\": false")) +
      http_request("GET", "/v1/healthz") +
      http_request("POST", "/v1/predict",
                   predict_body(2, 3.0, ", \"return_field\": false"));
  ASSERT_TRUE(client.send_raw(wire));

  HttpReply reply;
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(io::json_parse(reply.body).at("id").as_int(), 1);
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_TRUE(io::json_parse(reply.body).has("status"));  // the healthz doc
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(io::json_parse(reply.body).at("id").as_int(), 2);
}

// --- protocol edges ----------------------------------------------------------

TEST(HttpServe, OversizedBodyIs413WithEnvelopeThenClose) {
  FaultGuard guard("");
  serve::HttpOptions http;
  http.stream.max_request_bytes = 256;
  HttpHarness h(small_options(), http);
  HttpClient client(h.port.load());
  ASSERT_GE(client.fd, 0);

  // Head only, no body bytes: the cap check fires at header completion, and
  // leaving the kernel buffer empty keeps the close a clean FIN (unread data
  // at close can turn into an RST that races the 413 reply).
  ASSERT_TRUE(client.send_raw(
      "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: 1000\r\n\r\n"));
  HttpReply reply;
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 413);
  const auto doc = io::json_parse(reply.body);
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").at("code").as_string(), "request_too_large");
  ASSERT_NE(reply.header("Connection"), nullptr);
  EXPECT_EQ(*reply.header("Connection"), "close");
  EXPECT_TRUE(client.at_eof());
}

TEST(HttpServe, MalformedRequestLineIs400ThenClose) {
  FaultGuard guard("");
  HttpHarness h(small_options());
  HttpClient client(h.port.load());
  ASSERT_GE(client.fd, 0);

  ASSERT_TRUE(client.send_raw("NOT HTTP AT ALL\r\n\r\n"));
  HttpReply reply;
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 400);
  EXPECT_EQ(io::json_parse(reply.body).at("error").at("code").as_string(),
            "bad_request");
  EXPECT_TRUE(client.at_eof());
}

TEST(HttpServe, DeeplyNestedPredictBodyIs400AndServerStaysUp) {
  FaultGuard guard("");
  HttpHarness h(small_options());
  HttpClient client(h.port.load());
  ASSERT_GE(client.fd, 0);

  // 200 KB of '[' once overflowed the recursive JSON parser's stack.
  ASSERT_TRUE(client.send_raw(
      http_request("POST", "/v1/predict", std::string(200 * 1024, '['))));
  HttpReply reply;
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 400);
  const auto doc = io::json_parse(reply.body);
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").at("code").as_string(), "bad_request");

  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/healthz")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  EXPECT_TRUE(io::json_parse(reply.body).has("status"));
}

TEST(HttpServe, OverflowingGridShapeIs400AndServerStaysUp) {
  FaultGuard guard("");
  HttpHarness h(small_options());
  HttpClient client(h.port.load());
  ASSERT_GE(client.fd, 0);

  // nx*ny wraps index_t to 0 here: a shape check by multiplication would let
  // the empty eps through, and the point source would be written outside a
  // zero-size grid on a worker, killing the whole server.
  ASSERT_TRUE(client.send_raw(http_request(
      "POST", "/v1/predict", R"({"id":1,"nx":4294967296,"ny":4294967296,"eps":[]})")));
  HttpReply reply;
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 400);
  EXPECT_EQ(io::json_parse(reply.body).at("error").at("code").as_string(),
            "bad_request");

  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/healthz")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  EXPECT_TRUE(io::json_parse(reply.body).has("status"));
}

TEST(HttpServe, SlowLorisPartialHeaderDoesNotStallSiblings) {
  FaultGuard guard("");
  HttpHarness h(small_options());

  // The loris trickles half a header and then just sits there.
  HttpClient loris(h.port.load());
  ASSERT_GE(loris.fd, 0);
  ASSERT_TRUE(loris.send_raw("POST /v1/predict HTTP/1.1\r\nContent-Le"));

  // A well-behaved sibling gets full service while the loris dangles.
  HttpClient good(h.port.load());
  ASSERT_GE(good.fd, 0);
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(good.send_raw(http_request("GET", "/v1/healthz")));
    HttpReply reply;
    ASSERT_TRUE(good.read_reply(reply));
    EXPECT_EQ(reply.status, 200);
  }
}

TEST(HttpServe, ClientGoneMidReplyIsNotFatal) {
  // Each forward stalls, so the five replies leave one at a time. The
  // first reaches a client that has already closed; its kernel answers
  // with a reset, and the next reply is written to a reset socket (EPIPE).
  // Without MSG_NOSIGNAL that write raises SIGPIPE and kills this whole
  // test binary.
  FaultGuard guard("surrogate.forward=stall:10");
  HttpHarness h(small_options());
  {
    HttpClient client(h.port.load());
    ASSERT_GE(client.fd, 0);
    std::string burst;
    for (int id = 1; id <= 5; ++id) {
      burst += http_request("POST", "/v1/predict", predict_body(id, 2.0 + id));
    }
    ASSERT_TRUE(client.send_raw(burst));
  }  // closed without reading a byte
  for (int k = 0; k < 5000 && h.service.stats()[serve::ServeCounter::Completed] < 5; ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(h.service.stats()[serve::ServeCounter::Completed], 5u);

  // The server is still up: a new connection gets full service.
  HttpClient probe(h.port.load());
  ASSERT_GE(probe.fd, 0);
  ASSERT_TRUE(probe.send_raw(http_request("GET", "/v1/healthz")));
  HttpReply reply;
  ASSERT_TRUE(probe.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  probe.close();
  h.shutdown();
  EXPECT_EQ(h.report.connections, 2u);
  EXPECT_GE(h.report.errors, 1u);  // the write to the dead peer
}

// --- coalescing --------------------------------------------------------------

TEST(HttpServe, IdenticalConcurrentPredictsCoalesceToOneForward) {
  // The leader's forward stalls while the other clients arrive and attach.
  FaultGuard guard("surrogate.forward=stall:300");
  serve::ServeOptions options;
  // Two workers: the stalled forward occupies one, the other runs the
  // followers' parse jobs.
  options.workers = 2;
  options.cache_capacity = 0; // every request is a cache miss
  options.coalesce = true;
  HttpHarness h(options);

  constexpr int kClients = 8;
  const std::string wire = http_request(
      "POST", "/v1/predict", predict_body(5, 2.25, ", \"return_field\": false"));
  std::vector<std::unique_ptr<HttpClient>> clients;
  for (int k = 0; k < kClients; ++k) {
    clients.push_back(std::make_unique<HttpClient>(h.port.load()));
    ASSERT_GE(clients.back()->fd, 0);
  }
  // Send the leader first and the followers only once it is dispatched, so
  // two parse jobs cannot both become leader.
  ASSERT_TRUE(clients.front()->send_raw(wire));
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (h.service.stats()[serve::ServeCounter::SurrogateRequests] == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(h.service.stats()[serve::ServeCounter::SurrogateRequests], 1u);
  for (int k = 1; k < kClients; ++k) ASSERT_TRUE(clients[k]->send_raw(wire));
  for (auto& client : clients) {
    HttpReply reply;
    ASSERT_TRUE(client->read_reply(reply));
    EXPECT_EQ(reply.status, 200);
    const auto doc = io::json_parse(reply.body);
    EXPECT_TRUE(doc.at("ok").as_bool());
    EXPECT_EQ(doc.at("id").as_int(), 5);
  }

  const auto stats = h.service.stats();
  // One leader ran the surrogate pipeline once; everyone else attached.
  EXPECT_EQ(stats[serve::ServeCounter::SurrogateRequests], 1u);
  EXPECT_EQ(stats[serve::ServeCounter::Coalesced], static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(stats[serve::ServeCounter::Completed], static_cast<std::uint64_t>(kClients));
}

// --- admission control on the HTTP surface -----------------------------------

TEST(HttpServe, OverloadAnswers429WithRetryAfter) {
  FaultGuard guard("surrogate.forward=stall:200");
  auto options = small_options();
  // Two workers: with one, the second request's parse job would queue
  // behind the stalled forward and never race the in-flight slot.
  options.workers = 2;
  options.max_inflight = 1;
  options.coalesce = false;
  HttpHarness h(options);

  HttpClient first(h.port.load());
  HttpClient second(h.port.load());
  ASSERT_GE(first.fd, 0);
  ASSERT_GE(second.fd, 0);
  ASSERT_TRUE(first.send_raw(http_request(
      "POST", "/v1/predict", predict_body(1, 2.0, ", \"return_field\": false"))));
  // Give the first request time to occupy the only in-flight slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(second.send_raw(http_request(
      "POST", "/v1/predict", predict_body(2, 3.0, ", \"return_field\": false"))));

  HttpReply shed;
  ASSERT_TRUE(second.read_reply(shed));
  EXPECT_EQ(shed.status, 429);
  EXPECT_EQ(io::json_parse(shed.body).at("error").at("code").as_string(),
            "overloaded");
  ASSERT_NE(shed.header("Retry-After"), nullptr);
  EXPECT_GE(std::atoi(shed.header("Retry-After")->c_str()), 1);

  HttpReply ok;
  ASSERT_TRUE(first.read_reply(ok));
  EXPECT_EQ(ok.status, 200);
  EXPECT_TRUE(io::json_parse(ok.body).at("ok").as_bool());
}

// --- scalability floor -------------------------------------------------------

TEST(HttpServe, ThousandIdleKeepAliveConnectionsNoNewThreads) {
  FaultGuard guard("");
  // The test itself needs ~1000 client fds on top of the server's 1000.
  rlimit lim{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &lim), 0);
  if (lim.rlim_cur < 4096 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = std::min<rlim_t>(lim.rlim_max, 8192);
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lim), 0);
  }

  HttpHarness h(small_options());
  constexpr int kConns = 1000;
  std::vector<std::unique_ptr<HttpClient>> conns;
  conns.reserve(kConns);
  conns.push_back(std::make_unique<HttpClient>(h.port.load()));
  ASSERT_GE(conns.back()->fd, 0);

  // Warm-up predict first so every lazily-created service thread (the
  // queue workers) exists before the baseline count is taken.
  HttpReply reply;
  ASSERT_TRUE(conns.front()->send_raw(http_request(
      "POST", "/v1/predict", predict_body(8, 2.0, ", \"return_field\": false"))));
  ASSERT_TRUE(conns.front()->read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  const std::size_t threads_baseline = thread_count();

  for (int k = 1; k < kConns; ++k) {
    conns.push_back(std::make_unique<HttpClient>(h.port.load()));
    ASSERT_GE(conns.back()->fd, 0) << "connection " << k;
    // Prove it is a live HTTP connection, then leave it idle.
    if (k % 250 == 0) {
      ASSERT_TRUE(conns.back()->send_raw(http_request("GET", "/v1/healthz")));
      ASSERT_TRUE(conns.back()->read_reply(reply));
      EXPECT_EQ(reply.status, 200);
    }
  }

  // All 1000 idle connections are held by the single event-loop thread:
  // request service still works and the process thread count is flat.
  ASSERT_TRUE(conns.front()->send_raw(http_request(
      "POST", "/v1/predict", predict_body(9, 2.0, ", \"return_field\": false"))));
  ASSERT_TRUE(conns.front()->read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  ASSERT_TRUE(conns.back()->send_raw(http_request("GET", "/v1/stats")));
  ASSERT_TRUE(conns.back()->read_reply(reply));
  EXPECT_EQ(reply.status, 200);

  EXPECT_EQ(thread_count(), threads_baseline);
  conns.clear();
  h.shutdown();
  EXPECT_EQ(h.report.connections, static_cast<std::size_t>(kConns));
}

// --- graceful drain ----------------------------------------------------------

TEST(HttpServe, DrainFinishesInflightRepliesThenExits) {
  FaultGuard guard("surrogate.forward=stall:80");
  serve::HttpOptions http;
  http.tick_ms = 5.0;
  http.stream.drain_deadline_ms = 5000.0;
  HttpHarness h(small_options(), http);
  HttpClient client(h.port.load());
  ASSERT_GE(client.fd, 0);

  // A reply is in flight (stalled in its forward) when the stop flag flips.
  ASSERT_TRUE(client.send_raw(http_request(
      "POST", "/v1/predict", predict_body(4, 2.0, ", \"return_field\": false"))));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  h.stop.store(true);

  HttpReply reply;
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  EXPECT_TRUE(io::json_parse(reply.body).at("ok").as_bool());
  EXPECT_TRUE(client.at_eof());  // drained connections are closed

  h.shutdown();  // joins: serve_http returned on its own
  EXPECT_GE(h.report.requests, 1u);
}

// --- /v1 versioning ----------------------------------------------------------

TEST(HttpServe, V1RoutesAnswerAndEveryOtherTargetIs404) {
  FaultGuard guard("");
  HttpHarness h(small_options());
  HttpClient client(h.port.load());
  ASSERT_GE(client.fd, 0);

  // Canonical /v1 routes work end to end.
  HttpReply reply;
  ASSERT_TRUE(client.send_raw(
      http_request("POST", "/v1/predict",
                   predict_body(11, 2.5, ", \"return_field\": false"))));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(io::json_parse(reply.body).at("id").as_int(), 11);

  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/healthz")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(io::json_parse(reply.body).at("status").as_string(), "ok");

  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/stats")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  EXPECT_TRUE(io::json_parse(reply.body).has("requests"));

  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/metrics")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);

  // Bare paths, other API versions and the bare prefix all answer the
  // structured not_found envelope, on a connection that stays open.
  const std::vector<std::pair<std::string, std::string>> unknown = {
      {"GET", "/healthz"}, {"GET", "/stats"},  {"GET", "/metrics"},
      {"POST", "/predict"}, {"GET", "/v2/healthz"}, {"GET", "/v2"},
      {"GET", "/v99/jobs"}, {"GET", "/v1"},     {"GET", "/v1x/healthz"}};
  for (const auto& [method, target] : unknown) {
    const std::string body =
        method == "POST" ? predict_body(12, 2.5, ", \"return_field\": false")
                         : "";
    ASSERT_TRUE(client.send_raw(http_request(method, target, body)));
    ASSERT_TRUE(client.read_reply(reply)) << target;
    EXPECT_EQ(reply.status, 404) << target;
    const auto doc = io::json_parse(reply.body);
    EXPECT_EQ(doc.at("error").at("code").as_string(), "not_found") << target;
    EXPECT_NE(doc.at("error").at("message").as_string().find(
                  "served under /v1"),
              std::string::npos)
        << target;
  }

  // Method checks apply to /v1 routes.
  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/predict")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 405);

  // Without a mounted JobManager the jobs routes are a structured 404.
  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/jobs")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 404);
  EXPECT_NE(io::json_parse(reply.body).at("error").at("message").as_string().find(
                "jobs API disabled"),
            std::string::npos);

  // The bare POST /predict never reached the service.
  client.close();
  h.shutdown();
  EXPECT_EQ(h.service.stats()[serve::ServeCounter::Requests], 1u);
}

// --- jobs over HTTP ----------------------------------------------------------

namespace {

/// HttpHarness plus a mounted JobManager on its own TaskQueue.
struct JobsHarness {
  runtime::TaskQueue queue{2};
  serve::JobManager jobs;
  std::unique_ptr<HttpHarness> h;

  explicit JobsHarness(serve::JobsOptions options = {}) : jobs(queue, options) {
    serve::HttpOptions http;
    http.tick_ms = 5.0;
    http.jobs = &jobs;
    h = std::make_unique<HttpHarness>(small_options(), http);
  }
  int port() { return h->port.load(); }
};

std::string tiny_invdes_spec(int iterations) {
  return "{\"type\": \"invdes\", \"iterations\": " +
         std::to_string(iterations) + ", \"lr\": 0.05}";
}

/// Poll GET /v1/jobs/{id} until the job is terminal; returns the status doc.
io::JsonValue poll_job(HttpClient& client, const std::string& id) {
  for (int k = 0; k < 30000; ++k) {
    HttpReply reply;
    EXPECT_TRUE(client.send_raw(http_request("GET", "/v1/jobs/" + id)));
    EXPECT_TRUE(client.read_reply(reply));
    EXPECT_EQ(reply.status, 200);
    const auto doc = io::json_parse(reply.body);
    const std::string state = doc.at("state").as_string();
    if (state == "done" || state == "failed" || state == "cancelled") {
      return doc;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ADD_FAILURE() << "job " << id << " never reached a terminal state";
  return io::JsonValue();
}

}  // namespace

TEST(HttpServe, JobsSubmitPollResultOverHttp) {
  FaultGuard guard("");
  JobsHarness jh;
  HttpClient client(jh.port());
  ASSERT_GE(client.fd, 0);

  // Submit: 202 Accepted with the initial status document.
  HttpReply reply;
  ASSERT_TRUE(client.send_raw(
      http_request("POST", "/v1/jobs", tiny_invdes_spec(2))));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 202);
  const auto submitted = io::json_parse(reply.body);
  const std::string id = submitted.at("id").as_string();
  EXPECT_EQ(submitted.at("type").as_string(), "invdes");
  EXPECT_EQ(submitted.at("total_steps").as_int(), 2);

  // Poll to completion, then fetch the terminal result.
  const auto status = poll_job(client, id);
  EXPECT_EQ(status.at("state").as_string(), "done");
  ASSERT_TRUE(client.send_raw(
      http_request("GET", "/v1/jobs/" + id + "/result")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  const auto result = io::json_parse(reply.body);
  EXPECT_TRUE(result.at("ok").as_bool());
  EXPECT_EQ(result.at("result").at("task").as_string(), "invdes");
  EXPECT_GT(result.at("result").at("fom").as_number(), 0.0);

  // The list carries it; healthz and stats surface the jobs counters.
  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/jobs")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(io::json_parse(reply.body).at("jobs").size(), 1u);

  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/healthz")));
  ASSERT_TRUE(client.read_reply(reply));
  {
    const auto doc = io::json_parse(reply.body);
    EXPECT_EQ(doc.at("jobs_running").as_int(), 0);
    EXPECT_EQ(doc.at("jobs_queued").as_int(), 0);
  }
  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/stats")));
  ASSERT_TRUE(client.read_reply(reply));
  {
    const auto doc = io::json_parse(reply.body);
    EXPECT_EQ(doc.at("jobs").at("submitted").as_int(), 1);
    EXPECT_EQ(doc.at("jobs").at("completed").as_int(), 1);
    EXPECT_GE(doc.at("jobs").at("steps").as_int(), 2);
  }
}

TEST(HttpServe, JobsErrorsCarryTheEnvelope) {
  FaultGuard guard("");
  JobsHarness jh;
  HttpClient client(jh.port());
  ASSERT_GE(client.fd, 0);

  // Unknown id: 404 not_found.
  HttpReply reply;
  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/jobs/job-999999")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 404);
  EXPECT_EQ(io::json_parse(reply.body).at("error").at("code").as_string(),
            "not_found");

  // Malformed spec: 400 bad_request at submit time.
  ASSERT_TRUE(client.send_raw(
      http_request("POST", "/v1/jobs", "{\"type\": \"bogus\"}")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 400);
  EXPECT_EQ(io::json_parse(reply.body).at("error").at("code").as_string(),
            "bad_request");

  // Result before a terminal state: 409 not_ready.
  ASSERT_TRUE(client.send_raw(
      http_request("POST", "/v1/jobs", tiny_invdes_spec(40))));
  ASSERT_TRUE(client.read_reply(reply));
  ASSERT_EQ(reply.status, 202);
  const std::string id = io::json_parse(reply.body).at("id").as_string();
  ASSERT_TRUE(client.send_raw(
      http_request("GET", "/v1/jobs/" + id + "/result")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 409);
  EXPECT_EQ(io::json_parse(reply.body).at("error").at("code").as_string(),
            "not_ready");

  // Wrong method on a jobs route: 405 with Allow.
  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/jobs/" + id + "/cancel")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 405);
  ASSERT_NE(reply.header("Allow"), nullptr);
  EXPECT_EQ(*reply.header("Allow"), "POST");

  // Cancel mid-run: the job lands in cancelled, result answers 200 with the
  // structured job_cancelled document (the fetch itself succeeded).
  ASSERT_TRUE(client.send_raw(
      http_request("POST", "/v1/jobs/" + id + "/cancel", "")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  const auto final_status = poll_job(client, id);
  EXPECT_EQ(final_status.at("state").as_string(), "cancelled");
  EXPECT_LT(final_status.at("step").as_int(), 40);
  ASSERT_TRUE(client.send_raw(
      http_request("GET", "/v1/jobs/" + id + "/result")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  const auto result = io::json_parse(reply.body);
  EXPECT_FALSE(result.at("ok").as_bool());
  EXPECT_EQ(result.at("error").at("code").as_string(), "job_cancelled");
}

TEST(HttpServe, JobsQueueFullAnswers429WithRetryAfter) {
  FaultGuard guard("");
  serve::JobsOptions options;
  options.max_running = 1;
  options.max_queued = 0;
  JobsHarness jh(options);
  HttpClient client(jh.port());
  ASSERT_GE(client.fd, 0);

  HttpReply reply;
  ASSERT_TRUE(client.send_raw(
      http_request("POST", "/v1/jobs", tiny_invdes_spec(30))));
  ASSERT_TRUE(client.read_reply(reply));
  ASSERT_EQ(reply.status, 202);
  const std::string id = io::json_parse(reply.body).at("id").as_string();

  ASSERT_TRUE(client.send_raw(
      http_request("POST", "/v1/jobs", tiny_invdes_spec(2))));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 429);
  EXPECT_EQ(io::json_parse(reply.body).at("error").at("code").as_string(),
            "overloaded");
  ASSERT_NE(reply.header("Retry-After"), nullptr);
  EXPECT_GE(std::atoi(reply.header("Retry-After")->c_str()), 1);

  // Unblock the slot so teardown is quick.
  ASSERT_TRUE(client.send_raw(
      http_request("POST", "/v1/jobs/" + id + "/cancel", "")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
}

// --- observability -----------------------------------------------------------

TEST(HttpServe, RequestIdEchoedAndGenerated) {
  FaultGuard guard("");
  HttpHarness h(small_options());
  HttpClient client(h.port.load());
  ASSERT_GE(client.fd, 0);
  HttpReply reply;

  // A client-supplied X-Request-Id echoes back verbatim on every endpoint.
  ASSERT_TRUE(client.send_raw(http_request(
      "GET", "/v1/healthz", "", "X-Request-Id: cli-42\r\n")));
  ASSERT_TRUE(client.read_reply(reply));
  ASSERT_NE(reply.header("X-Request-Id"), nullptr);
  EXPECT_EQ(*reply.header("X-Request-Id"), "cli-42");

  ASSERT_TRUE(client.send_raw(http_request(
      "GET", "/v1/stats", "", "X-Request-Id: cli-43\r\n")));
  ASSERT_TRUE(client.read_reply(reply));
  ASSERT_NE(reply.header("X-Request-Id"), nullptr);
  EXPECT_EQ(*reply.header("X-Request-Id"), "cli-43");

  ASSERT_TRUE(client.send_raw(http_request(
      "POST", "/v1/predict", predict_body(1, 2.5), "X-Request-Id: cli-44\r\n")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  ASSERT_NE(reply.header("X-Request-Id"), nullptr);
  EXPECT_EQ(*reply.header("X-Request-Id"), "cli-44");

  // Without the header the server generates one (r-<hex>-<n>), distinct per
  // request.
  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/healthz")));
  ASSERT_TRUE(client.read_reply(reply));
  ASSERT_NE(reply.header("X-Request-Id"), nullptr);
  const std::string first = *reply.header("X-Request-Id");
  EXPECT_EQ(first.rfind("r-", 0), 0u) << first;
  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/healthz")));
  ASSERT_TRUE(client.read_reply(reply));
  ASSERT_NE(reply.header("X-Request-Id"), nullptr);
  EXPECT_NE(*reply.header("X-Request-Id"), first);
}

TEST(HttpServe, MetricsEndpointServesPrometheusText) {
  FaultGuard guard("");
  HttpHarness h(small_options());
  HttpClient client(h.port.load());
  ASSERT_GE(client.fd, 0);
  HttpReply reply;

  // Drive one predict so the per-stage histograms have samples.
  ASSERT_TRUE(client.send_raw(
      http_request("POST", "/v1/predict", predict_body(5, 2.5))));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);

  ASSERT_TRUE(client.send_raw(http_request("GET", "/v1/metrics")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 200);
  ASSERT_NE(reply.header("Content-Type"), nullptr);
  EXPECT_NE(reply.header("Content-Type")->find("text/plain"),
            std::string::npos);
  const std::string& text = reply.body;
  EXPECT_NE(text.find("maps_serve_requests_total"), std::string::npos);
  EXPECT_NE(text.find("maps_serve_ingress_parse_ms_bucket{le="),
            std::string::npos);
  EXPECT_NE(text.find("maps_serve_request_total_ms_p50"), std::string::npos);
  EXPECT_NE(text.find("maps_serve_cache_hit_ratio "), std::string::npos);
  EXPECT_NE(text.find("maps_serve_breaker_state{state=\"closed\"} 1"),
            std::string::npos);

  // Only the /v1 route serves the page: the bare path is a 404.
  ASSERT_TRUE(client.send_raw(http_request("GET", "/metrics")));
  ASSERT_TRUE(client.read_reply(reply));
  EXPECT_EQ(reply.status, 404);
  EXPECT_EQ(io::json_parse(reply.body).at("error").at("code").as_string(),
            "not_found");
}
