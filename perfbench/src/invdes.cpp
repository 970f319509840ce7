// invdes_job: MAPS-InvDes as served.
//
// Set-up (repeated; setup_s is the median) boots `maps_cli serve --http` with
// the jobs API mounted on a journal directory. The timed window is a closed
// loop of one client: submit a bend invdes job to POST /v1/jobs, poll
// GET /v1/jobs/{id} every kPollMs until it is terminal, fetch the result,
// repeat until --seconds have elapsed. job_step_ms (latency_p50_ms here) is
// the median over jobs of (terminal - submit) / steps. After the window a
// sample of jobs is re-run in process through InverseDesigner::run and must
// land on exactly the served final objective. The traced run scrapes
// /v1/metrics + /v1/stats around the window, measures journal growth and
// replays one spec through invdes::InvDesStepper::step.
#include <cmath>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/invdes/engine.hpp"
#include "core/invdes/init.hpp"
#include "devices/builders.hpp"
#include "io/config.hpp"
#include "io/json.hpp"

namespace perfbench {
namespace {

constexpr int kIterations = 10;      // steps per job
constexpr double kPollMs = 1.0;
constexpr double kLimitMs = 100.0;   // per-job step-time limit behind slo_share
// Tail percentile by the ladder rule at the design job count (~110 jobs in
// 20 s; p90 needs 100).
constexpr double kTailQ = 0.9;
constexpr int kObjectiveChecks = 3;  // jobs re-run in process after the window
constexpr std::size_t kWarmupJob = 1000000;  // job index of the set-up warm-up jobs

io::JsonValue job_spec(std::uint64_t seed, std::size_t job) {
  io::JsonValue spec;
  spec["type"] = "invdes";
  spec["device"] = "bending";
  spec["iterations"] = kIterations;
  spec["init"] = "random";
  spec["seed"] = static_cast<int>((seed * 7919u + job) % 1000003u);
  return spec;
}

invdes::InitKind init_kind(const std::string& name) {
  if (name == "gray") return invdes::InitKind::Gray;
  if (name == "random") return invdes::InitKind::Random;
  return invdes::InitKind::PathSeed;
}

/// The served job's computation, in process: same config parse, device
/// build, pipeline and initial design as the jobs engine.
struct LocalRun {
  io::InvDesConfig config;
  devices::DeviceProblem device;
  std::vector<double> theta0;

  explicit LocalRun(const io::JsonValue& spec) {
    io::JsonValue body = spec;
    body.as_object().erase("type");
    config = io::InvDesConfig::from_json(body);
    devices::BuildOptions build;
    build.fidelity = config.fidelity;
    device = devices::make_device(config.device, build);
    io::apply_solver_settings(device, config.solver);
    theta0 = invdes::make_initial_theta(device, init_kind(config.init), config.seed);
  }
  param::DesignPipeline pipeline() const {
    return devices::make_default_pipeline(device, config.device, config.pipeline);
  }
};

struct JobOutcome {
  bool ok = false;
  std::string problem;
  double submit_ms = 0.0, terminal_ms = 0.0;
  int steps = 0;
  double fom = 0.0;
};

/// One job, submit to result. `spans` (traced jobs only) receives a client
/// span per HTTP call under one job span.
JobOutcome run_job(int port, const io::JsonValue& spec, std::vector<Span>* spans) {
  JobOutcome o;
  o.submit_ms = now_ms();
  const int root = spans ? static_cast<int>(spans->size()) : -1;
  if (spans) spans->push_back({"client.job", -1, o.submit_ms, 0.0});
  const auto record = [&](const char* name, const Reply& r) {
    if (spans) spans->push_back({name, root, r.sent_ms, r.done_ms});
  };
  const Reply sub = http_call(port, "POST", "/v1/jobs", spec.dump());
  record("client.submit", sub);
  if (sub.failed || sub.status != 202) {
    o.problem = "submit answered HTTP " + std::to_string(sub.status) + " " + sub.body.substr(0, 200);
    return o;
  }
  const std::string id = io::json_parse(sub.body).at("id").as_string();
  Client poll(port, 1);
  std::string state;
  io::JsonValue status;
  for (;;) {
    Reply r;
    bool got = false;
    poll.send(0, http_request("GET", "/v1/jobs/" + id), 0);
    while (!got) poll.poll_once(1000.0, [&](Reply& x) { r = std::move(x); got = true; });
    record("client.poll", r);
    if (r.failed || r.status != 200) {
      o.problem = "status poll answered HTTP " + std::to_string(r.status);
      return o;
    }
    status = io::json_parse(r.body);
    state = status.at("state").as_string();
    if (state != "queued" && state != "running") break;
    std::this_thread::sleep_for(std::chrono::microseconds(static_cast<int>(kPollMs * 1000)));
  }
  o.terminal_ms = now_ms();
  o.steps = static_cast<int>(status.at("step").as_int());
  if (state != "done") {
    o.problem = "job ended " + state;
    return o;
  }
  const Reply res = http_call(port, "GET", "/v1/jobs/" + id + "/result");
  record("client.result", res);
  if (spans) (*spans)[static_cast<std::size_t>(root)].end_ms = now_ms();
  if (res.failed || res.status != 200) {
    o.problem = "result answered HTTP " + std::to_string(res.status);
    return o;
  }
  const io::JsonValue doc = io::json_parse(res.body);
  o.fom = doc.at("result").at("fom").as_number();
  o.ok = o.steps == kIterations && std::isfinite(o.fom);
  if (!o.ok) o.problem = "job finished with " + std::to_string(o.steps) + " steps";
  return o;
}

}  // namespace

int run_invdes(const RunContext& ctx, RunResult& out) {
  // ---- set-up, repeated: server boot plus one warm-up job (first-job
  // costs stay out of the timed window); the last boot serves the window.
  std::vector<double> setup_s;
  Server server;
  std::string jobs_dir;
  for (int attempt = 0; more_setup(attempt, std::accumulate(setup_s.begin(), setup_s.end(), 0.0)); ++attempt) {
    if (server.proc) server.proc->stop();
    const double t0 = now_ms();
    jobs_dir = ctx.workdir + "/jobs" + std::to_string(attempt);
    io::JsonValue cfg;
    cfg["jobs"] = true;
    cfg["jobs_dir"] = jobs_dir;
    server = boot_server(ctx, attempt, cfg);
    const JobOutcome warm = run_job(server.proc->port(), job_spec(ctx.seed, kWarmupJob + attempt), nullptr);
    if (!warm.ok) throw std::runtime_error("warm-up job failed: " + warm.problem);
    setup_s.push_back((now_ms() - t0) / 1000.0);
  }
  out.e2e["setup_s"] = median(setup_s);
  const int port = server.proc->port();

  PromPage m_before;
  io::JsonValue s_before;
  const auto scrape = [&](PromPage& m, io::JsonValue& s) {
    const Reply a = http_call(port, "GET", "/v1/metrics");
    const Reply b = http_call(port, "GET", "/v1/stats");
    if (a.status != 200 || b.status != 200) throw std::runtime_error("metrics/stats scrape failed");
    m = parse_prometheus(a.body);
    s = io::json_parse(b.body);
  };
  if (ctx.trace) scrape(m_before, s_before);
  const std::uint64_t journal_before = dir_bytes(jobs_dir);

  // ---- timed closed loop.
  std::vector<JobOutcome> outcomes;
  std::vector<io::JsonValue> specs;
  std::vector<Span> spans;
  std::uint64_t digest = 1469598103934665603ull;
  const double t_start = now_ms();
  while (now_ms() - t_start < ctx.seconds * 1000.0) {
    specs.push_back(job_spec(ctx.seed, specs.size()));
    const std::string text = specs.back().dump();
    digest = fnv1a(text.data(), text.size(), digest);
    // The traced run records client spans for every other job (the rest
    // are the untraced side of obs.trace_overhead).
    const bool traced_job = ctx.trace && specs.size() % 2 == 0;
    outcomes.push_back(run_job(port, specs.back(), traced_job ? &spans : nullptr));
  }
  const double t_end = now_ms();
  out.input_digest = hex64(digest);

  std::vector<double> step_ms, step_rate, untraced, traced;
  std::size_t steps = 0;
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    const JobOutcome& o = outcomes[k];
    ++out.attempted;
    if (!o.ok) {
      ++out.failed;
      out.check(false, "job " + std::to_string(k) + ": " + o.problem);
      continue;
    }
    const double per_step = (o.terminal_ms - o.submit_ms) / o.steps;
    step_ms.push_back(per_step);
    // Steps per second of client time: submit to the next job's submit.
    const double next = k + 1 < outcomes.size() ? outcomes[k + 1].submit_ms : t_end;
    step_rate.push_back(o.steps / ((next - o.submit_ms) / 1000.0));
    (ctx.trace && k % 2 == 1 ? traced : untraced).push_back(per_step);
    steps += static_cast<std::size_t>(o.steps);
  }
  // Objective check: first, middle and last job re-run in process.
  for (int c = 0; c < kObjectiveChecks && !outcomes.empty(); ++c) {
    const std::size_t k = c * (outcomes.size() - 1) / std::max(1, kObjectiveChecks - 1);
    if (!outcomes[k].ok) continue;
    LocalRun local(specs[k]);
    invdes::InverseDesigner designer(local.device, local.pipeline(), local.config.options);
    const double fom = designer.run(local.theta0).fom;
    out.check(fom == outcomes[k].fom, "job " + std::to_string(k) + " final objective " +
                                          fmt(outcomes[k].fom, 17) + " != in-process " + fmt(fom, 17));
  }

  const double tail_q = kTailQ;
  std::size_t within = 0;
  for (const double ms : step_ms) within += ms <= kLimitMs;
  out.e2e["peak_rss_mb"] = server.proc->peak_rss_mb();
  out.e2e["ok_share"] = static_cast<double>(out.attempted - out.failed) /
                        static_cast<double>(std::max<std::size_t>(1, out.attempted));
  out.e2e["latency_p50_ms"] = median(step_ms);
  out.e2e["latency_tail_ms"] = quantile(step_ms, tail_q);
  out.e2e["slo_share"] = static_cast<double>(within) / static_cast<double>(std::max<std::size_t>(1, outcomes.size()));
  out.e2e["throughput_per_s"] = median(step_rate);
  out.note("invdes jobs: " + std::to_string(outcomes.size()) + " bend jobs x " +
           std::to_string(kIterations) + " steps, 1 client closed loop, poll every " +
           fmt(kPollMs) + " ms");
  out.note("job_step_ms p50 " + fmt(out.e2e["latency_p50_ms"]) + " ms, " + quantile_label(tail_q) +
           " " + fmt(out.e2e["latency_tail_ms"]) + " ms; " + fmt(out.e2e["throughput_per_s"]) +
           " steps/s; within " + fmt(kLimitMs) + " ms/step: " + fmt(out.e2e["slo_share"]));
  out.note("setup (boot + model install + jobs journal + warm-up job) x" + std::to_string(kSetupRepeats) +
           ": median " + fmt(out.e2e["setup_s"]) + " s");
  if (!ctx.trace) {
    server.proc->stop();
    return 0;
  }

  // ---- traced run: per-layer metrics.
  auto& L = out.layer;
  PromPage m_after;
  io::JsonValue s_after;
  scrape(m_after, s_after);
  const std::uint64_t journal_after = dir_bytes(jobs_dir);
  double factorizations = 0.0, solves = 0.0;
  L["jobs.step_ms.p50"] = histogram_delta_quantile(m_before, m_after, "maps_jobs_step_ms", 0.5);
  L["jobs.journal_bytes_per_step"] =
      steps ? static_cast<double>(journal_after - journal_before) / static_cast<double>(steps) : 0.0;
  L["jobs.journal_retries"] = s_after.at("jobs").at("journal_retries").as_number() -
                              s_before.at("jobs").at("journal_retries").as_number();
  L["solver.factorize_ms.p50"] =
      histogram_delta_quantile(m_before, m_after, "maps_solver_factorize_ms", 0.5, &factorizations);
  L["solver.solve_ms.p50"] = histogram_delta_quantile(m_before, m_after, "maps_solver_solve_ms", 0.5, &solves);
  L["solver.refine_ms.p50"] = histogram_delta_quantile(m_before, m_after, "maps_solver_refine_ms", 0.5);
  L["solver.factorizations"] = factorizations;
  L["solver.solves"] = solves;
  L["solver.refine_iterations"] = m_after.value("maps_solver_refine_iterations_total") -
                                  m_before.value("maps_solver_refine_iterations_total");
  L["solver.refine_fallbacks"] = m_after.value("maps_solver_refine_fallbacks_total") -
                                 m_before.value("maps_solver_refine_fallbacks_total");
  L["client.closed.sent"] = static_cast<double>(outcomes.size());
  L["client.closed.ok"] = static_cast<double>(outcomes.size() - out.failed);
  L["client.closed.failed"] = static_cast<double>(out.failed);

  // In-process replay of the first job's spec, one stepper step at a time.
  {
    LocalRun local(specs.front());
    param::DesignPipeline pipeline = local.pipeline();
    invdes::NumericalProvider provider(local.device);
    invdes::InvDesStepper stepper(pipeline, local.config.options, local.theta0);
    std::vector<double> replay;
    while (!stepper.done()) {
      const double t0 = now_ms();
      stepper.step(provider);
      replay.push_back(now_ms() - t0);
    }
    L["invdes.step_ms.p50"] = median(replay);
  }
  {
    // Client self time of a job: the part of submit-to-result no HTTP call
    // covers (poll sleeps and client bookkeeping).
    const std::vector<double> self = span_self_ms(spans);
    std::vector<double> job_self;
    for (std::size_t k = 0; k < spans.size(); ++k) {
      if (spans[k].parent < 0) job_self.push_back(self[k]);
    }
    out.note("traced jobs: client self time p50 " + fmt(median(job_self)) + " ms per job");
  }
  L["obs.trace_overhead"] = median(untraced) > 0 ? median(traced) / median(untraced) : 0.0;
  const double job_step = out.e2e["latency_p50_ms"];
  L["unaccounted_share"] = job_step > 0 ? std::max(0.0, 1.0 - L["jobs.step_ms.p50"] / job_step) : 0.0;
  server.proc->stop();
  return 0;
}

}  // namespace perfbench
