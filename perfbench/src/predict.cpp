// The two served-predict workloads.
//
// predict_hit_wire    open loop over a small, pre-warmed working set: every
//                     timed request is a result-cache hit, so the cost is the
//                     front end (net), JSON parse (io) and reply encode
//                     (serve.wire).
// predict_miss_mixed  open loop of fresh 64x64 patterns: no hits, mostly
//                     surrogate (MicroBatcher + nn forward) with a minority
//                     of direct solves (fidelity "high").
//
// Each run: set up kSetupRepeats times (boot maps_cli serve, install the
// model checkpoint, generate inputs, warm up; setup_s is the median), then an
// open-loop phase at the workload's fixed Poisson rate and a closed-loop
// capacity phase with one outstanding request per connection. Output checks
// run outside the timed window except the per-reply byte checks, which are
// O(1) substring probes and one memcmp. The traced run adds client spans,
// a /v1/metrics + /v1/stats scrape around the timed window and an
// in-process replay of the bodies through io::json_parse,
// serve::parse_request and serve::encode_response_text.
#include <cmath>
#include <cstring>
#include <iterator>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "fdfd/simulation.hpp"
#include "io/config.hpp"
#include "io/json.hpp"
#include "net.hpp"
#include "serve/wire.hpp"

namespace perfbench {
namespace {

struct PredictSpec {
  bool hit = false;
  double rate_rps = 0.0;     // open-loop Poisson arrival rate
  double open_share = 0.6;   // share of --seconds spent open-loop
  double limit_ms = 0.0;     // latency limit behind slo_share
  double tail_q = 0.5;       // tail percentile, fixed by design_tail_q()
  double lag_bound_ms = 0.0; // generator lateness that invalidates the run
  int cache_capacity = 0;    // server result-cache entries (0 = default)
  int rounds = 1;            // open/closed alternations the medians are taken over
};

// Request classes of predict_hit_wire: {grid, return_field, weight, distinct}.
// Every reply carries its field, so a hit's cost is JSON parse + encode
// (replies of ~180 KB and ~700 KB), not thread wake-ups: summary-only 32x32
// hits measured mostly the host's scheduler (their p50 spread over ten
// runs exceeded the 0.25 bound). At a 10% share the 128x128 class holds
// the p95 tail near its own median.
struct HitClass {
  int n;
  bool field;
  double weight;
  int distinct;
};
constexpr HitClass kHitClasses[] = {{64, true, 0.90, 8}, {128, true, 0.10, 2}};
constexpr int kHitClassCount = static_cast<int>(std::size(kHitClasses));

constexpr int kMissGrid = 64;
constexpr double kMissHighShare = 0.15;
constexpr int kMissWarmup = 24;  // distinct warm-up patterns, not reused
constexpr int kHighChecks = 3;   // fidelity-high replies re-checked in-process

PredictSpec spec_for(const std::string& workload) {
  PredictSpec s;
  if (workload == "predict_hit_wire") {
    s.hit = true;
    s.rate_rps = 120.0;
    s.limit_ms = 50.0;
    s.lag_bound_ms = 25.0;
    s.rounds = 6;
  } else {
    s.rate_rps = 22.0;
    s.open_share = 0.65;
    s.rounds = 6;
    s.limit_ms = 500.0;
    s.lag_bound_ms = 25.0;
    s.cache_capacity = 64;
  }
  return s;
}

/// One request body plus what the reply must look like.
struct Body {
  std::string http;     // full HTTP request bytes
  std::size_t json_bytes = 0;
  int n = 0;
  bool field = false;
  bool high = false;
  std::size_t numbers = 0;  // JSON numbers in the body
};

Body make_body(std::mt19937_64& rng, int n, bool field, bool high) {
  const std::vector<double> eps = make_pattern(rng, n, n);
  std::string json = "{\"nx\":" + std::to_string(n) + ",\"ny\":" + std::to_string(n) +
                     ",\"fidelity\":\"" + (high ? "high" : "low") +
                     "\",\"return_field\":" + (field ? "true" : "false") + ",\"eps\":[";
  for (std::size_t i = 0; i < eps.size(); ++i) {
    if (i) json += ',';
    json += eps_text(eps[i]);
  }
  json += "]}";
  Body b;
  b.json_bytes = json.size();
  b.http = http_request("POST", "/v1/predict", json);
  b.n = n;
  b.field = field;
  b.high = high;
  b.numbers = eps.size() + 2;
  return b;
}

std::string body_json(const Body& b) { return b.http.substr(b.http.size() - b.json_bytes); }

/// The reply bytes that must not change between a warm-up reply and a cache
/// hit of the same pattern: the field object (when returned) and everything
/// from "nx" to the end (nx, ny, ok, rms, source).
struct Signature {
  std::size_t field_pos = std::string::npos, field_len = 0, tail_pos = std::string::npos;
};

Signature signature_of(const std::string& body) {
  Signature s;
  s.field_pos = body.find("\"field\":");
  const std::size_t id = body.rfind(",\"id\":");
  if (s.field_pos != std::string::npos && id != std::string::npos && id > s.field_pos) {
    s.field_len = id - s.field_pos;
  }
  s.tail_pos = body.rfind("\"nx\":");
  return s;
}

bool same_answer(const std::string& a, const Signature& sa, const std::string& b) {
  const Signature sb = signature_of(b);
  if (sa.tail_pos == std::string::npos || sb.tail_pos == std::string::npos) return false;
  if (a.size() - sa.tail_pos != b.size() - sb.tail_pos ||
      a.compare(sa.tail_pos, std::string::npos, b, sb.tail_pos) != 0) {
    return false;
  }
  if (sa.field_len == 0) return sb.field_len == 0;
  return sa.field_len == sb.field_len &&
         std::memcmp(a.data() + sa.field_pos, b.data() + sb.field_pos, sa.field_len) == 0;
}

double number_after(const std::string& body, const char* key) {
  const std::size_t at = body.rfind(key);
  if (at == std::string::npos) return NAN;
  return std::strtod(body.c_str() + at + std::strlen(key), nullptr);
}

/// What a timed reply must carry (fresh miss bodies are not kept).
struct Expect {
  int n = 0;
  bool high = false;
  int warm = -1;  // warm-up reply index a hit must equal; -1 = none
};

/// O(1)-ish checks every timed reply gets.
std::string reply_problem(const Reply& r, const Expect& b, bool expect_hit) {
  if (r.failed) return "connection failed";
  if (r.status != 200) return "HTTP " + std::to_string(r.status) + ": " + r.body.substr(0, 200);
  const std::string& s = r.body;
  const std::size_t tail = s.rfind("\"nx\":");
  if (tail == std::string::npos || s.find("\"ok\":true", tail) == std::string::npos) {
    return "reply not ok";
  }
  const char* source = b.high ? "\"source\":\"solver\"" : "\"source\":\"surrogate\"";
  if (s.find(source, tail) == std::string::npos) return "source does not match fidelity";
  if (s.compare(0, 17, expect_hit ? "{\"cache_hit\":true" : "{\"cache_hit\":fals") != 0) {
    return expect_hit ? "expected a cache hit" : "unexpected cache hit";
  }
  if (s.find("\"escalated\":false") == std::string::npos ||
      s.find("\"degraded\":false") == std::string::npos) {
    return "escalated or degraded answer";
  }
  const double nx = number_after(s, "\"nx\":"), ny = number_after(s, "\"ny\":");
  if (nx != b.n || ny != b.n) return "wrong grid size in reply";
  if (!std::isfinite(number_after(s, "\"rms\":"))) return "non-finite rms";
  return "";
}

/// Full check of one reply document (warm-up and post-window samples).
std::string deep_problem(const std::string& text, const Body& b, io::JsonValue* doc_out) {
  io::JsonValue doc;
  try {
    doc = io::json_parse(text);
  } catch (const std::exception& e) {
    return std::string("unparsable reply: ") + e.what();
  }
  if (!doc.is_object() || !doc.has("ok") || !doc.at("ok").as_bool()) return "reply not ok";
  const std::string want = b.high ? "solver" : "surrogate";
  if (doc.at("source").as_string() != want) return "source does not match fidelity";
  if (!std::isfinite(doc.at("rms").as_number())) return "non-finite rms";
  if (b.field) {
    const io::JsonValue* f = doc.find("field");
    if (f == nullptr) return "field missing";
    const std::size_t cells = static_cast<std::size_t>(b.n) * static_cast<std::size_t>(b.n);
    for (const char* part : {"re", "im"}) {
      const io::JsonArray& a = f->at(part).as_array();
      if (a.size() != cells) return "field has wrong length";
      for (const auto& v : a) {
        if (!std::isfinite(v.as_number())) return "non-finite field value";
      }
    }
  }
  if (doc_out != nullptr) *doc_out = std::move(doc);
  return "";
}

struct Phase {
  std::vector<OpenLoopRecord> records;
  std::vector<Reply> replies;  // traced: client timings of each completed reply
  std::size_t sent = 0, ok = 0, failed = 0;
  std::size_t req_bytes = 0, reply_bytes = 0;
};

class Inputs {
 public:
  Inputs(const PredictSpec& spec, std::uint64_t seed) : spec_(spec), seed_(seed) {
    std::mt19937_64 rng(seed);
    if (spec.hit) {
      for (const HitClass& c : kHitClasses) {
        for (int k = 0; k < c.distinct; ++k) {
          bodies_.push_back(make_body(rng, c.n, c.field, false));
        }
      }
      for (const Body& b : bodies_) digest_ = fnv1a(b.http.data(), b.http.size(), digest_);
    } else {
      for (int k = 0; k < kMissWarmup; ++k) {
        bodies_.push_back(make_body(rng, kMissGrid, false, k % 4 == 0));
      }
    }
  }

  std::vector<Body>& warm() { return bodies_; }

  /// Timed request i (deterministic in (seed, i)); returns the body index.
  const Body& timed(std::size_t i, int* index_out) {
    std::mt19937_64 rng(seed_ * 0x9E3779B97F4A7C15ull + i + 1);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (spec_.hit) {
      double x = u(rng), acc = 0.0;
      int c = 0;
      for (; c + 1 < kHitClassCount; ++c) {
        acc += kHitClasses[c].weight;
        if (x < acc) break;
      }
      int first = 0;
      for (int k = 0; k < c; ++k) first += kHitClasses[k].distinct;
      const int idx = first + static_cast<int>(rng() % static_cast<std::uint64_t>(kHitClasses[c].distinct));
      *index_out = idx;
      return bodies_[static_cast<std::size_t>(idx)];
    }
    const bool high = u(rng) < kMissHighShare;
    fresh_ = make_body(rng, kMissGrid, false, high);
    digest_ = fnv1a(fresh_.http.data(), fresh_.http.size(), digest_);
    *index_out = -1;
    return fresh_;
  }

  std::uint64_t digest() const { return digest_; }

 private:
  PredictSpec spec_;
  std::uint64_t seed_;
  std::vector<Body> bodies_;
  Body fresh_;
  std::uint64_t digest_ = 1469598103934665603ull;
};

/// Open loop: Poisson arrivals at `rate` for `seconds`; replies are checked
/// as they arrive. Returns when every request completed or failed.
Phase open_loop(Client& client, Inputs& inputs, std::size_t& next_index, double rate,
                double seconds, std::mt19937_64& arrivals, bool expect_hit,
                bool keep_replies, const std::vector<std::string>* warm_replies,
                const std::vector<Signature>* warm_sigs, RunResult& out,
                std::vector<std::size_t>* high_indices) {
  Phase ph;
  std::exponential_distribution<double> gap(rate / 1000.0);
  std::vector<double> due;
  const double t0 = now_ms() + 5.0;
  for (double t = t0 + gap(arrivals); t < t0 + seconds * 1000.0; t += gap(arrivals)) due.push_back(t);
  ph.records.resize(due.size());
  std::vector<Expect> expect(due.size());
  const auto on_reply = [&](Reply& r) {
    const std::size_t i = static_cast<std::size_t>(r.tag);
    OpenLoopRecord& rec = ph.records[i];
    rec.done_ms = r.done_ms;
    std::string problem = reply_problem(r, expect[i], expect_hit);
    if (problem.empty() && expect[i].warm >= 0) {
      const std::size_t w = static_cast<std::size_t>(expect[i].warm);
      if (!same_answer((*warm_replies)[w], (*warm_sigs)[w], r.body)) {
        problem = "cache-hit answer differs from its warm-up reply";
      }
    }
    rec.ok = problem.empty();
    if (rec.ok) {
      ++ph.ok;
    } else {
      ++ph.failed;
      if (out.check_failures.size() < 8) out.check(false, "open loop request: " + problem);
    }
    ph.reply_bytes += r.body.size();
    if (keep_replies) {
      r.body.clear();
      ph.replies.push_back(std::move(r));
    }
  };
  std::size_t i = 0;
  const double drain_until = t0 + seconds * 1000.0 + 30000.0;
  while (i < due.size() || client.outstanding() > 0) {
    double now = now_ms();
    while (i < due.size() && due[i] <= now) {
      int w = -1;
      const std::size_t gi = next_index++;
      const Body& b = inputs.timed(gi, &w);
      if (high_indices != nullptr && b.high && high_indices->size() < kHighChecks) {
        high_indices->push_back(gi);
      }
      expect[i] = Expect{b.n, b.high, w};
      ph.records[i].due_ms = due[i];
      ph.records[i].sent_ms = now;
      ph.req_bytes += b.http.size();
      client.send(static_cast<int>(i), b.http);
      ++i;
      now = now_ms();
    }
    if (now > drain_until) break;
    const double wait = i < due.size() ? due[i] - now : 50.0;
    client.poll_once(wait, on_reply);
  }
  ph.sent = i;
  // Requests never answered count as failed.
  for (std::size_t k = 0; k < i; ++k) {
    if (ph.records[k].done_ms == 0.0) {
      ++ph.failed;
      out.check(false, "request never answered");
    }
  }
  return ph;
}

/// Closed loop: one outstanding request per connection for `seconds`;
/// returns the completions per second inside the window.
double closed_loop(Client& client, Inputs& inputs, std::size_t& next_index, double seconds,
                   bool expect_hit, const std::vector<std::string>* warm_replies,
                   const std::vector<Signature>* warm_sigs, RunResult& out, Phase& ph) {
  const double t0 = now_ms();
  const double t_end = t0 + seconds * 1000.0;
  std::size_t done = 0;
  std::vector<Expect> inflight(static_cast<std::size_t>(client.connections()));
  const auto issue = [&](int conn) {
    int w = -1;
    const Body& b = inputs.timed(next_index++, &w);
    inflight[static_cast<std::size_t>(conn)] = Expect{b.n, b.high, w};
    ph.req_bytes += b.http.size();
    ++ph.sent;
    client.send(conn, b.http, conn);
  };
  for (int c = 0; c < client.connections(); ++c) issue(c);
  const auto on_reply = [&](Reply& r) {
    const int conn = r.tag;
    const Expect& e = inflight[static_cast<std::size_t>(conn)];
    std::string problem = reply_problem(r, e, expect_hit);
    if (problem.empty() && e.warm >= 0 &&
        !same_answer((*warm_replies)[static_cast<std::size_t>(e.warm)],
                     (*warm_sigs)[static_cast<std::size_t>(e.warm)], r.body)) {
      problem = "cache-hit answer differs from its warm-up reply";
    }
    ph.reply_bytes += r.body.size();
    if (problem.empty()) {
      ++ph.ok;
      if (r.done_ms < t_end) ++done;
    } else {
      ++ph.failed;
      if (out.check_failures.size() < 8) out.check(false, "closed loop request: " + problem);
    }
    if (now_ms() < t_end && !r.failed) issue(conn);
  };
  // Tags are connection indices here: one outstanding request per connection.
  while (client.outstanding() > 0 && now_ms() < t_end + 30000.0) {
    client.poll_once(std::max(0.0, t_end - now_ms()) + 1.0, on_reply);
  }
  return static_cast<double>(done) / seconds;
}

struct Scrape {
  PromPage metrics;
  io::JsonValue stats;
};

Scrape scrape(int port) {
  Scrape s;
  const Reply m = http_call(port, "GET", "/v1/metrics");
  const Reply st = http_call(port, "GET", "/v1/stats");
  if (m.failed || m.status != 200 || st.failed || st.status != 200) {
    throw std::runtime_error("metrics/stats scrape failed");
  }
  s.metrics = parse_prometheus(m.body);
  s.stats = io::json_parse(st.body);
  return s;
}

double delta(const Scrape& a, const Scrape& b, const std::string& series) {
  return b.metrics.value(series) - a.metrics.value(series);
}

/// Replay every body in `bodies` through the wire layers in-process.
void replay_wire(const std::vector<const Body*>& bodies, const std::vector<io::JsonValue>& replies,
                 const serve::WireDefaults& defaults, RunResult& out) {
  std::vector<double> parse_us, wire_us, encode_us;
  double parse_ns = 0.0, numbers = 0.0, encode_ns = 0.0, enc_numbers = 0.0;
  for (std::size_t k = 0; k < bodies.size(); ++k) {
    const Body& b = *bodies[k];
    const std::string json = body_json(b);
    const double t0 = now_ms();
    const io::JsonValue doc = io::json_parse(json);
    const double t1 = now_ms();
    const serve::WireRequest wr = serve::parse_request(doc, defaults);
    const double t2 = now_ms();
    parse_us.push_back((t1 - t0) * 1000.0);
    wire_us.push_back((t2 - t1) * 1000.0);
    parse_ns += (t1 - t0) * 1e6;
    numbers += static_cast<double>(b.numbers);

    serve::ServeResponse resp;
    resp.source = b.high ? serve::ResponseSource::Solver : serve::ResponseSource::Surrogate;
    resp.cache_hit = true;
    resp.model_id = b.high ? "" : "bench-fno";
    resp.model_version = b.high ? 0 : 1;
    resp.Ez = math::CplxGrid(b.n, b.n);
    const io::JsonValue* field = replies[k].is_object() ? replies[k].find("field") : nullptr;
    std::mt19937_64 rng(k);
    std::normal_distribution<double> nd;
    for (index_t n = 0; n < resp.Ez.size(); ++n) {
      resp.Ez[n] = field != nullptr
                       ? cplx{field->at("re").at(static_cast<std::size_t>(n)).as_number(),
                              field->at("im").at(static_cast<std::size_t>(n)).as_number()}
                       : cplx{nd(rng), nd(rng)};
    }
    const double t3 = now_ms();
    const std::string text = serve::encode_response_text(wr.id, resp, b.field);
    const double t4 = now_ms();
    encode_us.push_back((t4 - t3) * 1000.0);
    if (b.field) {
      encode_ns += (t4 - t3) * 1e6;
      enc_numbers += 2.0 * static_cast<double>(resp.Ez.size());
    }
    if (text.empty()) out.check(false, "replayed encode produced nothing");
  }
  out.layer["io.json_parse_us.p50"] = median(parse_us);
  out.layer["io.json_parse_ns_per_number"] = numbers > 0 ? parse_ns / numbers : 0.0;
  out.layer["serve.wire.parse_request_us.p50"] = median(wire_us);
  out.layer["serve.wire.encode_us.p50"] = median(encode_us);
  out.layer["serve.wire.encode_ns_per_number"] = enc_numbers > 0 ? encode_ns / enc_numbers : 0.0;
}

}  // namespace

int run_predict(const RunContext& ctx, RunResult& out) {
  PredictSpec spec = spec_for(ctx.workload);
  // The ladder rule at the design count of one open-loop group, with a 10%
  // allowance for the Poisson count falling short.
  spec.tail_q = tail_quantile(static_cast<std::size_t>(
      0.9 * spec.rate_rps * ctx.seconds * spec.open_share / spec.rounds));
  // Open loop: up to nproc connections (pipelining allowed). Closed loop:
  // half of them, one outstanding request each, so the server's workers,
  // its event loop and the client never outnumber the cores.
  const int conns = std::min(4, ctx.nproc);
  const int closed_conns = std::max(1, conns / 2);

  // ---- set-up, repeated; the last boot serves the timed phases.
  std::vector<double> setup_s;
  Server server;
  std::optional<Inputs> inputs;
  std::vector<std::string> warm_replies;
  std::vector<Signature> warm_sigs;
  std::vector<io::JsonValue> warm_docs;
  for (int attempt = 0; more_setup(attempt, std::accumulate(setup_s.begin(), setup_s.end(), 0.0)); ++attempt) {
    if (server.proc) server.proc->stop();
    const double t0 = now_ms();
    io::JsonValue cfg;
    if (spec.cache_capacity > 0) cfg["cache_capacity"] = spec.cache_capacity;
    server = boot_server(ctx, attempt, cfg);
    inputs.emplace(spec, ctx.seed);
    warm_replies.clear();
    warm_sigs.clear();
    warm_docs.clear();
    Client warm(server.proc->port(), 1);
    for (std::size_t k = 0; k < inputs->warm().size(); ++k) {
      const Body& b = inputs->warm()[k];
      warm.send(static_cast<int>(k), b.http, 0);
      Reply got;
      bool done = false;
      while (!done) warm.poll_once(1000.0, [&](Reply& r) { got = std::move(r); done = true; });
      if (got.failed || got.status != 200) {
        throw std::runtime_error("warm-up request failed: HTTP " + std::to_string(got.status) +
                                 " " + got.body.substr(0, 200));
      }
      warm_sigs.push_back(signature_of(got.body));
      warm_replies.push_back(std::move(got.body));
    }
    setup_s.push_back((now_ms() - t0) / 1000.0);
  }
  // Full checks of the warm-up replies (outside any timed window).
  for (std::size_t k = 0; k < warm_replies.size(); ++k) {
    io::JsonValue doc;
    const std::string p = deep_problem(warm_replies[k], inputs->warm()[k], &doc);
    out.check(p.empty(), "warm-up reply " + std::to_string(k) + ": " + p);
    warm_docs.push_back(std::move(doc));
  }
  out.e2e["setup_s"] = median(setup_s);
  const int port = server.proc->port();

  // ---- timed window: `rounds` alternations of an open-loop segment and a
  // closed-loop segment, so both sample the whole run; reported values are
  // medians over rounds (a host slowdown confined to one round moves one
  // sample, not the result).
  std::mt19937_64 arrivals(ctx.seed ^ 0xA5A5A5A5ull);
  std::size_t next_index = 0;
  std::vector<std::size_t> high_indices;
  const double open_s = ctx.seconds * spec.open_share / spec.rounds;
  const double closed_s = ctx.seconds * (1.0 - spec.open_share) / spec.rounds;
  const auto* wr = spec.hit ? &warm_replies : nullptr;
  const auto* ws = spec.hit ? &warm_sigs : nullptr;
  std::optional<Scrape> before;
  if (ctx.trace) before = scrape(port);
  Client client(port, conns);
  Client closed_client(port, closed_conns);
  Phase open, closed;
  std::vector<Reply> traced_replies;
  std::vector<std::vector<OpenLoopRecord>> groups, untraced_groups, traced_groups;
  std::vector<double> capacities;
  for (int r = 0; r < spec.rounds; ++r) {
    // The traced run records client spans in every other round; the other
    // rounds are the untraced side of obs.trace_overhead.
    const bool traced_round = ctx.trace && r % 2 == 1;
    Phase ph = open_loop(client, *inputs, next_index, spec.rate_rps, open_s, arrivals, spec.hit,
                         traced_round, wr, ws, out, &high_indices);
    open.sent += ph.sent;
    open.ok += ph.ok;
    open.failed += ph.failed;
    open.req_bytes += ph.req_bytes;
    open.reply_bytes += ph.reply_bytes;
    for (Reply& rep : ph.replies) traced_replies.push_back(std::move(rep));
    (traced_round ? traced_groups : untraced_groups).push_back(ph.records);
    groups.push_back(std::move(ph.records));
    capacities.push_back(
        closed_loop(closed_client, *inputs, next_index, closed_s, spec.hit, wr, ws, out, closed));
  }
  const double capacity = median(capacities);
  std::optional<Scrape> after;
  if (ctx.trace) after = scrape(port);

  const LatencySummary lat = summarize_groups(groups, spec.limit_ms, spec.tail_q);
  out.attempted = open.sent + closed.sent;
  out.failed = open.failed + closed.failed;
  out.input_digest = hex64(inputs->digest());
  if (lat.sched_lag_p99_ms > spec.lag_bound_ms) {
    out.invalid.push_back("client.sched_lag_p99_ms " + fmt(lat.sched_lag_p99_ms) +
                          " exceeds its bound " + fmt(spec.lag_bound_ms) + " ms");
  }

  // ---- post-window checks: fidelity-high answers against an in-process solve.
  const serve::WireDefaults defaults = server.config.wire_defaults();
  std::size_t high_checked = 0;
  for (const std::size_t gi : high_indices) {
    int w = -1;
    Body b = inputs->timed(gi, &w);
    std::string json = body_json(b);
    const std::string needle = "\"return_field\":false";
    json.replace(json.find(needle), needle.size(), "\"return_field\":true");
    b.field = true;
    const Reply r = http_call(port, "POST", "/v1/predict", json);
    io::JsonValue doc;
    std::string p = r.failed || r.status != 200 ? "HTTP " + std::to_string(r.status)
                                                : deep_problem(r.body, b, &doc);
    if (p.empty()) {
      const serve::WireRequest req = serve::parse_request(io::json_parse(json), defaults);
      fdfd::SimOptions so;
      so.pml = req.request.pml;
      so.set_fidelity(solver::FidelityLevel::High);
      fdfd::Simulation sim(req.request.spec, req.request.eps, req.request.omega, so);
      const math::CplxGrid ez = sim.solve(req.request.J);
      double num = 0.0, den = 0.0;
      const io::JsonValue& f = doc.at("field");
      for (index_t n = 0; n < ez.size(); ++n) {
        const cplx got{f.at("re").at(static_cast<std::size_t>(n)).as_number(),
                       f.at("im").at(static_cast<std::size_t>(n)).as_number()};
        num += std::norm(got - ez[n]);
        den += std::norm(ez[n]);
      }
      const double rel = std::sqrt(num / std::max(den, 1e-300));
      if (!(rel <= 1e-9)) p = "fidelity-high field differs from in-process solve (rel " + fmt(rel) + ")";
      ++high_checked;
    }
    out.check(p.empty(), "fidelity-high check: " + p);
  }
  if (!spec.hit) out.check(high_checked > 0, "no fidelity-high reply was checked");

  // ---- end-to-end metrics.
  out.e2e["peak_rss_mb"] = server.proc->peak_rss_mb();
  out.e2e["ok_share"] = out.attempted ? static_cast<double>(out.attempted - out.failed) /
                                            static_cast<double>(out.attempted)
                                      : 0.0;
  out.e2e["latency_p50_ms"] = lat.p50_ms;
  out.e2e["latency_tail_ms"] = lat.tail_ms;
  out.e2e["slo_share"] = lat.slo_share;
  out.e2e["throughput_per_s"] = capacity;
  out.note("open loop: " + fmt(spec.rate_rps) + " req/s Poisson, " + std::to_string(spec.rounds) +
           " segments of " + fmt(open_s) + " s on " + std::to_string(conns) + " connections, " +
           std::to_string(open.sent) + " sent, " + std::to_string(lat.samples) +
           " OK; latency from due time, median over segments: p50 " + fmt(lat.p50_ms) +
           " ms (predict_p50_ms), " +
           quantile_label(lat.tail_q) + " " + fmt(lat.tail_ms) + " ms (predict_p99_ms)");
  out.note("slo: share of sent completed OK within " + fmt(spec.limit_ms) + " ms = " +
           fmt(lat.slo_share) + " (predict_slo_share); generator lag p99 " +
           fmt(lat.sched_lag_p99_ms) + " ms");
  out.note("closed loop: " + std::to_string(closed_conns) + " connections x 1 outstanding, " +
           std::to_string(spec.rounds) + " segments of " + fmt(closed_s) +
           " s: median " + fmt(capacity) + " req/s (predict_capacity_rps), " +
           std::to_string(closed.sent) + " sent");
  out.note("setup (boot + model install + inputs + warm-up) x" + std::to_string(kSetupRepeats) +
           ": median " + fmt(out.e2e["setup_s"]) + " s");

  if (!ctx.trace) {
    server.proc->stop();
    return 0;
  }

  // ---- traced run: per-layer metrics.
  auto& L = out.layer;
  L["client.open.sent"] = static_cast<double>(open.sent);
  L["client.open.ok"] = static_cast<double>(open.ok);
  L["client.open.failed"] = static_cast<double>(open.failed);
  L["client.closed.sent"] = static_cast<double>(closed.sent);
  L["client.closed.ok"] = static_cast<double>(closed.ok);
  L["client.closed.failed"] = static_cast<double>(closed.failed);
  L["client.sched_lag_p99_ms"] = lat.sched_lag_p99_ms;
  // Client spans of the traced rounds: request [sent, done] with children
  // write [sent, written], ttfb [written, first byte], body [first byte, done].
  std::vector<Span> spans;
  for (const Reply& r : traced_replies) {
    if (r.failed) continue;
    const int root = static_cast<int>(spans.size());
    spans.push_back({"client.request", -1, r.sent_ms, r.done_ms});
    spans.push_back({"client.write", root, r.sent_ms, r.written_ms});
    spans.push_back({"client.ttfb", root, r.written_ms, r.first_byte_ms});
    spans.push_back({"client.body_read", root, r.first_byte_ms, r.done_ms});
  }
  const std::vector<double> self = span_self_ms(spans);
  std::vector<double> ttfb, body_read, root_self;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const double d = spans[k].end_ms - spans[k].start_ms;
    if (spans[k].name == "client.ttfb") ttfb.push_back(d);
    if (spans[k].name == "client.body_read") body_read.push_back(d);
    if (spans[k].parent < 0) root_self.push_back(self[k]);
  }
  L["client.ttfb_ms.p50"] = median(ttfb);
  L["client.body_read_ms.p50"] = median(body_read);
  const double open_sent = static_cast<double>(std::max<std::size_t>(1, open.sent));
  L["net.req_bytes_mean"] = static_cast<double>(open.req_bytes) / open_sent;
  L["net.reply_bytes_mean"] = static_cast<double>(open.reply_bytes) / open_sent;

  const Scrape& a = *before;
  const Scrape& b = *after;
  const auto hq = [&](const char* family, double q) {
    return histogram_delta_quantile(a.metrics, b.metrics, family, q);
  };
  L["serve.ingress.parse_ms.p50"] = hq("maps_serve_ingress_parse_ms", 0.5);
  const double requests = delta(a, b, "maps_serve_requests_total");
  const double hits = delta(a, b, "maps_serve_cache_hits_total");
  L["serve.cache.hit_ratio"] = requests > 0 ? hits / requests : 0.0;
  L["serve.cache.evictions"] = delta(a, b, "maps_serve_cache_evictions_total");
  L["serve.cache.lookup_ms.p50"] = hq("maps_serve_cache_lookup_ms", 0.5);
  L["serve.request.total_ms.p50"] = hq("maps_serve_request_total_ms", 0.5);
  L["serve.request.total_ms.p99"] = hq("maps_serve_request_total_ms", 0.99);
  L["serve.shed"] = delta(a, b, "maps_serve_shed_total");
  L["serve.deadline_exceeded"] = delta(a, b, "maps_serve_deadline_exceeded_total");
  L["serve.errors"] = delta(a, b, "maps_serve_errors_total");
  L["serve.coalesced"] = delta(a, b, "maps_serve_coalesced_total");
  L["serve.batch.queue_ms.p50"] = hq("maps_serve_batch_queue_ms", 0.5);
  L["serve.batch.queue_ms.p99"] = hq("maps_serve_batch_queue_ms", 0.99);
  const double batches = delta(a, b, "maps_serve_batches_total");
  const double surrogate = delta(a, b, "maps_serve_surrogate_requests_total");
  L["serve.batch.avg_size"] = batches > 0 ? surrogate / batches : 0.0;
  L["serve.batch.deadline_flush_share"] =
      batches > 0 ? delta(a, b, "maps_serve_batch_deadline_flushes_total") / batches : 0.0;
  double forwards = 0.0, factorizations = 0.0, solves = 0.0;
  L["serve.surrogate.forward_ms.p50"] =
      histogram_delta_quantile(a.metrics, b.metrics, "maps_serve_surrogate_forward_ms", 0.5, &forwards);
  L["serve.surrogate.forwards"] = forwards;
  const double forward_sum = delta(a, b, "maps_serve_surrogate_forward_ms_sum");
  L["nn.forward_ms_per_sample"] = surrogate > 0 ? forward_sum / surrogate : 0.0;
  L["solver.factorize_ms.p50"] = histogram_delta_quantile(a.metrics, b.metrics,
                                                          "maps_solver_factorize_ms", 0.5, &factorizations);
  L["solver.solve_ms.p50"] =
      histogram_delta_quantile(a.metrics, b.metrics, "maps_solver_solve_ms", 0.5, &solves);
  L["solver.refine_ms.p50"] = hq("maps_solver_refine_ms", 0.5);
  L["solver.factorizations"] = factorizations;
  L["solver.solves"] = solves;
  L["solver.refine_iterations"] = delta(a, b, "maps_solver_refine_iterations_total");
  L["solver.refine_fallbacks"] = delta(a, b, "maps_solver_refine_fallbacks_total");

  // Predicted isolation.
  if (spec.hit) {
    out.check(forwards == 0.0, "isolation: " + fmt(forwards) + " surrogate forwards after warm-up on predict_hit_wire");
    out.check(factorizations == 0.0,
              "isolation: " + fmt(factorizations) + " factorizations after warm-up on predict_hit_wire");
  } else {
    out.check(L["serve.cache.hit_ratio"] < 0.01,
              "isolation: cache hit ratio " + fmt(L["serve.cache.hit_ratio"]) + " on predict_miss_mixed");
  }

  // Wire replay: the run's request sequence (capped), each body
  // through io::json_parse, serve::parse_request and encode_response_text.
  std::vector<const Body*> replay;
  std::vector<io::JsonValue> replay_replies;
  std::vector<Body> fresh;
  const std::size_t cap = spec.hit ? 200 : 64;
  if (spec.hit) {
    for (std::size_t gi = 0; replay.size() < cap && gi < next_index; ++gi) {
      int w = -1;
      replay.push_back(&inputs->timed(gi, &w));
      replay_replies.push_back(warm_docs[static_cast<std::size_t>(w)]);
    }
  } else {
    fresh.reserve(cap);
    for (std::size_t gi = 0; fresh.size() < cap && gi < next_index; ++gi) {
      int w = -1;
      fresh.push_back(inputs->timed(gi, &w));
    }
    for (const Body& fb : fresh) {
      replay.push_back(&fb);
      replay_replies.emplace_back();
    }
  }
  replay_wire(replay, replay_replies, defaults, out);

  // obs: tracing overhead and the client p50 no layer covers. The blocking
  // path of one request is ingress parse + service total + reply encode;
  // socket transfer is what remains.
  const LatencySummary lu = summarize_groups(untraced_groups, spec.limit_ms, spec.tail_q);
  const LatencySummary lt = summarize_groups(traced_groups, spec.limit_ms, spec.tail_q);
  L["obs.trace_overhead"] = lu.p50_ms > 0 ? lt.p50_ms / lu.p50_ms : 0.0;
  const double covered = L["serve.ingress.parse_ms.p50"] + L["serve.request.total_ms.p50"] +
                         L["serve.wire.encode_us.p50"] / 1000.0;
  L["unaccounted_share"] = lt.p50_ms > 0 ? std::max(0.0, 1.0 - covered / lt.p50_ms) : 0.0;
  out.note("client request span self time p50 " + fmt(median(root_self)) + " ms (time no client child span covers)");
  server.proc->stop();
  return 0;
}

}  // namespace perfbench
