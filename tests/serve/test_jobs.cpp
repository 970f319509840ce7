// JobManager: the long-running jobs behind /v1/jobs — lifecycle, sweep
// engines, cancellation, admission control, crash-safe journal resume
// (including the pinned resumed-equals-uninterrupted final objective),
// chaos behavior at the jobs.step / jobs.journal fault points, and a
// seeded mutation corpus (tests/json_mutants.hpp) over a job's manifest
// and journal.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "../json_mutants.hpp"
#include "io/json.hpp"
#include "runtime/fault.hpp"
#include "runtime/task_queue.hpp"
#include "serve/jobs.hpp"
#include "serve/service.hpp"

namespace {

using namespace maps;
namespace fault = maps::runtime::fault;

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

std::string scratch_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/maps_jobs_" + name;
  std::filesystem::remove_all(path);
  return path;
}

io::JsonValue invdes_spec(int iterations) {
  io::JsonValue spec;
  spec["type"] = "invdes";
  spec["iterations"] = iterations;
  spec["lr"] = 0.05;
  return spec;
}

io::JsonValue sweep_spec(const std::string& sweep) {
  io::JsonValue spec;
  spec["type"] = "sweep";
  spec["sweep"] = sweep;
  return spec;
}

bool terminal(const std::string& state) {
  return state == "done" || state == "failed" || state == "cancelled";
}

/// Poll a job until it reaches a terminal state; returns its final status.
io::JsonValue wait_terminal(const serve::JobManager& jobs,
                            const std::string& id,
                            double timeout_s = 120.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    const io::JsonValue status = jobs.status(id);
    if (terminal(status.at("state").as_string())) return status;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "job " << id << " did not finish: " << status.dump();
      return status;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Poll until the job has executed at least `step` steps (still running).
void wait_step(const serve::JobManager& jobs, const std::string& id, int step) {
  for (;;) {
    const io::JsonValue status = jobs.status(id);
    if (static_cast<int>(status.at("step").as_int()) >= step ||
        terminal(status.at("state").as_string())) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

// --- lifecycle ---------------------------------------------------------------

TEST(Jobs, InvdesLifecycleSubmitPollResult) {
  FaultGuard guard("");
  runtime::TaskQueue queue(2);
  serve::JobManager jobs(queue);

  const std::string id = jobs.submit(invdes_spec(3));
  EXPECT_EQ(id, "job-000001");

  const io::JsonValue status = wait_terminal(jobs, id);
  EXPECT_EQ(status.at("state").as_string(), "done");
  EXPECT_EQ(status.at("step").as_int(), 3);
  EXPECT_EQ(status.at("total_steps").as_int(), 3);
  EXPECT_GT(status.at("objective").as_number(), 0.0);
  EXPECT_GT(status.at("solves").as_int(), 0);

  const io::JsonValue result = jobs.result(id);
  EXPECT_TRUE(result.at("ok").as_bool());
  const io::JsonValue& doc = result.at("result");
  EXPECT_EQ(doc.at("task").as_string(), "invdes");
  EXPECT_EQ(doc.at("device").as_string(), "bending");
  EXPECT_EQ(doc.at("iterations").as_int(), 3);
  EXPECT_GT(doc.at("theta").size(), 0u);
  EXPECT_DOUBLE_EQ(doc.at("fom").as_number(), status.at("objective").as_number());

  const io::JsonValue all = jobs.list();
  ASSERT_EQ(all.at("jobs").size(), 1u);
  EXPECT_EQ(all.at("jobs").as_array()[0].at("id").as_string(), id);

  const serve::JobsStatsSnapshot stats = jobs.stats();
  EXPECT_EQ(stats[serve::JobsCounter::Submitted], 1u);
  EXPECT_EQ(stats[serve::JobsCounter::Completed], 1u);
  EXPECT_EQ(stats[serve::JobsCounter::Steps], 3u);
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.queued, 0);
}

TEST(Jobs, SweepCornersRunsEveryCorner) {
  FaultGuard guard("");
  runtime::TaskQueue queue(2);
  serve::JobManager jobs(queue);

  const std::string id = jobs.submit(sweep_spec("corners"));
  const io::JsonValue status = wait_terminal(jobs, id);
  ASSERT_EQ(status.at("state").as_string(), "done");
  EXPECT_EQ(status.at("step").as_int(), 3);

  const io::JsonValue result = jobs.result(id);
  ASSERT_TRUE(result.at("ok").as_bool());
  const io::JsonValue& doc = result.at("result");
  EXPECT_EQ(doc.at("task").as_string(), "sweep");
  EXPECT_EQ(doc.at("sweep").as_string(), "corners");
  const io::JsonArray& items = doc.at("items").as_array();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].at("corner").as_string(), "nominal");
  for (const auto& item : items) {
    EXPECT_TRUE(item.has("fom"));
    EXPECT_GT(item.at("transmissions").size(), 0u);
  }
}

TEST(Jobs, SweepSparamsReportsEntries) {
  FaultGuard guard("");
  runtime::TaskQueue queue(2);
  serve::JobManager jobs(queue);

  io::JsonValue spec = sweep_spec("sparams");
  io::JsonArray lambdas;
  lambdas.push_back(1.55);
  spec["wavelengths"] = io::JsonValue(std::move(lambdas));
  const std::string id = jobs.submit(spec);
  const io::JsonValue status = wait_terminal(jobs, id);
  ASSERT_EQ(status.at("state").as_string(), "done");

  const io::JsonValue result = jobs.result(id);
  const io::JsonArray& items = result.at("result").at("items").as_array();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_DOUBLE_EQ(items[0].at("wavelength").as_number(), 1.55);
  EXPECT_GT(items[0].at("entries").size(), 0u);
  EXPECT_TRUE(items[0].has("contrast"));
}

// --- validation and lookups --------------------------------------------------

TEST(Jobs, MalformedSpecsRejectedAtSubmit) {
  FaultGuard guard("");
  runtime::TaskQueue queue(1);
  serve::JobManager jobs(queue);

  EXPECT_THROW(jobs.submit(io::JsonValue()), MapsError);
  io::JsonValue unknown;
  unknown["type"] = "bogus";
  EXPECT_THROW(jobs.submit(unknown), MapsError);
  io::JsonValue bad_key = invdes_spec(2);
  bad_key["report"] = "out.json";  // file outputs make no sense for a job
  EXPECT_THROW(jobs.submit(bad_key), MapsError);
  io::JsonValue bad_field = invdes_spec(2);
  bad_field["iterations"] = -3;
  EXPECT_THROW(jobs.submit(bad_field), MapsError);

  EXPECT_EQ(jobs.stats()[serve::JobsCounter::Submitted], 0u);
  EXPECT_THROW(jobs.status("job-000001"), serve::JobNotFound);
  EXPECT_THROW(jobs.result("nope"), serve::JobNotFound);
  EXPECT_THROW(jobs.cancel("nope"), serve::JobNotFound);
}

TEST(Jobs, ResultBeforeTerminalIsNotReady) {
  FaultGuard guard("");
  runtime::TaskQueue queue(2);
  serve::JobManager jobs(queue);

  const std::string id = jobs.submit(invdes_spec(4));
  EXPECT_THROW(jobs.result(id), serve::JobNotReady);
  wait_terminal(jobs, id);
  EXPECT_NO_THROW(jobs.result(id));
}

// --- cancellation ------------------------------------------------------------

TEST(Jobs, CancelQueuedImmediatelyAndRunningAtStepBoundary) {
  FaultGuard guard("");
  runtime::TaskQueue queue(2);
  serve::JobsOptions options;
  options.max_running = 1;
  serve::JobManager jobs(queue, options);

  const std::string running = jobs.submit(invdes_spec(50));
  const std::string queued = jobs.submit(invdes_spec(50));

  // The queued job never held a slot: cancel is immediate.
  const io::JsonValue q = jobs.cancel(queued);
  EXPECT_EQ(q.at("state").as_string(), "cancelled");

  // The running job parks at the next step boundary, well before 50 steps.
  wait_step(jobs, running, 1);
  const io::JsonValue r = jobs.cancel(running);
  EXPECT_TRUE(r.at("state").as_string() == "cancelling" ||
              r.at("state").as_string() == "cancelled");
  const io::JsonValue final_status = wait_terminal(jobs, running);
  EXPECT_EQ(final_status.at("state").as_string(), "cancelled");
  EXPECT_LT(final_status.at("step").as_int(), 50);

  const io::JsonValue result = jobs.result(running);
  EXPECT_FALSE(result.at("ok").as_bool());
  EXPECT_EQ(result.at("error").at("code").as_string(), "job_cancelled");
  // Idempotent on terminal jobs.
  EXPECT_EQ(jobs.cancel(running).at("state").as_string(), "cancelled");
  EXPECT_EQ(jobs.stats()[serve::JobsCounter::Cancelled], 2u);
}

// --- admission control -------------------------------------------------------

TEST(Jobs, QueueFullAndDrainingShedWithOverloaded) {
  FaultGuard guard("");
  runtime::TaskQueue queue(2);
  serve::JobsOptions options;
  options.max_running = 1;
  options.max_queued = 1;
  serve::JobManager jobs(queue, options);

  (void)jobs.submit(invdes_spec(30));  // takes the running slot
  (void)jobs.submit(invdes_spec(30));  // fills the queue
  EXPECT_THROW(jobs.submit(invdes_spec(30)), serve::OverloadedError);
  EXPECT_EQ(jobs.stats()[serve::JobsCounter::Shed], 1u);

  jobs.drain();
  EXPECT_THROW(jobs.submit(invdes_spec(2)), serve::OverloadedError);
  EXPECT_EQ(jobs.stats()[serve::JobsCounter::Shed], 2u);
}

// --- journal resume ----------------------------------------------------------

TEST(Jobs, ResumedJobMatchesUninterruptedObjective) {
  FaultGuard guard("");
  const std::string dir = scratch_dir("resume");
  constexpr int kIterations = 6;

  // Baseline: the same spec run start-to-finish without interruption.
  double uninterrupted_fom = 0.0;
  {
    runtime::TaskQueue queue(2);
    serve::JobManager jobs(queue);
    const std::string id = jobs.submit(invdes_spec(kIterations));
    wait_terminal(jobs, id);
    uninterrupted_fom = jobs.result(id).at("result").at("fom").as_number();
  }

  // Interrupted run: drain mid-flight (parks the job with its journaled
  // checkpoint), drop the manager — the on-disk journal is all that's left.
  std::string id;
  {
    runtime::TaskQueue queue(2);
    serve::JobsOptions options;
    options.journal_dir = dir;
    serve::JobManager jobs(queue, options);
    id = jobs.submit(invdes_spec(kIterations));
    wait_step(jobs, id, 2);
    jobs.drain();
  }

  // A kill mid-append leaves a torn trailing line; resume must ignore it
  // and continue from the last fully flushed step.
  {
    std::ofstream torn(dir + "/" + id + ".journal",
                       std::ios::binary | std::ios::app);
    torn << "{\"step\": 99, \"objective\": 0.1, \"fact";
  }

  // Fresh manager on the same journal dir: the job re-queues from its
  // checkpoint and lands on the exact objective of the uninterrupted run.
  {
    runtime::TaskQueue queue(2);
    serve::JobsOptions options;
    options.journal_dir = dir;
    serve::JobManager jobs(queue, options);
    EXPECT_EQ(jobs.resume_journaled(), 1);
    const io::JsonValue status = wait_terminal(jobs, id);
    EXPECT_EQ(status.at("state").as_string(), "done");
    EXPECT_EQ(status.at("step").as_int(), kIterations);
    EXPECT_TRUE(status.at("resumed").as_bool());
    EXPECT_EQ(jobs.stats()[serve::JobsCounter::Resumed], 1u);
    const io::JsonValue result = jobs.result(id);
    ASSERT_TRUE(result.at("ok").as_bool());
    EXPECT_DOUBLE_EQ(result.at("result").at("fom").as_number(),
                     uninterrupted_fom);
  }

  // Terminal jobs stay queryable across yet another restart.
  {
    runtime::TaskQueue queue(1);
    serve::JobsOptions options;
    options.journal_dir = dir;
    serve::JobManager jobs(queue, options);
    EXPECT_EQ(jobs.resume_journaled(), 0);
    const io::JsonValue result = jobs.result(id);
    EXPECT_TRUE(result.at("ok").as_bool());
    EXPECT_DOUBLE_EQ(result.at("result").at("fom").as_number(),
                     uninterrupted_fom);
  }
  std::filesystem::remove_all(dir);
}

TEST(Jobs, FailedCompactionKeepsTheJournal) {
  FaultGuard guard("");
  const std::string dir = scratch_dir("failed_compaction");
  constexpr int kIterations = 24;

  // Journal a few steps, then fail every manifest save: the drain's parking
  // compaction cannot write the manifest, so it must not truncate the
  // journal that holds the steps the submit-time manifest lacks.
  std::string id;
  int journaled = 0;
  {
    runtime::TaskQueue queue(2);
    serve::JobsOptions options;
    options.journal_dir = dir;
    serve::JobManager jobs(queue, options);
    id = jobs.submit(invdes_spec(kIterations));
    wait_step(jobs, id, 3);
    journaled = static_cast<int>(jobs.status(id).at("step").as_int());
    fault::arm_from_spec("jobs.journal=io");
    jobs.drain();
  }
  fault::disarm_all();
  ASSERT_GE(journaled, 3);
  ASSERT_LT(journaled, kIterations);

  runtime::TaskQueue queue(2);
  serve::JobsOptions options;
  options.journal_dir = dir;
  serve::JobManager jobs(queue, options);
  EXPECT_EQ(jobs.resume_journaled(), 1);
  EXPECT_GE(jobs.status(id).at("step").as_int(), journaled);
  const io::JsonValue status = wait_terminal(jobs, id);
  EXPECT_EQ(status.at("state").as_string(), "done");
  EXPECT_EQ(status.at("step").as_int(), kIterations);
  std::filesystem::remove_all(dir);
}

TEST(Jobs, CancelledAndQueuedStatesSurviveRestart) {
  FaultGuard guard("");
  const std::string dir = scratch_dir("restart_states");
  std::string cancelled_id, queued_id;
  {
    runtime::TaskQueue queue(2);
    serve::JobsOptions options;
    options.max_running = 1;
    options.journal_dir = dir;
    serve::JobManager jobs(queue, options);
    (void)jobs.submit(invdes_spec(24));  // occupies the slot
    cancelled_id = jobs.submit(invdes_spec(2));
    queued_id = jobs.submit(sweep_spec("corners"));
    (void)jobs.cancel(cancelled_id);
    jobs.drain();
  }
  {
    runtime::TaskQueue queue(2);
    serve::JobsOptions options;
    options.max_running = 2;
    options.journal_dir = dir;
    serve::JobManager jobs(queue, options);
    EXPECT_EQ(jobs.resume_journaled(), 2);  // the parked job + the queued one
    EXPECT_EQ(jobs.status(cancelled_id).at("state").as_string(), "cancelled");
    const io::JsonValue status = wait_terminal(jobs, queued_id);
    EXPECT_EQ(status.at("state").as_string(), "done");
    // New submissions never collide with resumed ids.
    EXPECT_EQ(jobs.submit(invdes_spec(1)), "job-000004");
    wait_terminal(jobs, "job-000004");
    (void)wait_terminal(jobs, "job-000001");
  }
  std::filesystem::remove_all(dir);
}

// --- chaos -------------------------------------------------------------------

TEST(Jobs, JournalIoFaultsDegradeDurabilityNotTheJob) {
  FaultGuard guard("jobs.journal=io@every:2");
  const std::string dir = scratch_dir("chaos_journal");
  runtime::TaskQueue queue(2);
  serve::JobsOptions options;
  options.journal_dir = dir;
  serve::JobManager jobs(queue, options);

  const std::string id = jobs.submit(sweep_spec("corners"));
  const io::JsonValue status = wait_terminal(jobs, id);
  EXPECT_EQ(status.at("state").as_string(), "done");
  EXPECT_TRUE(jobs.result(id).at("ok").as_bool());
  EXPECT_GT(jobs.stats()[serve::JobsCounter::JournalRetries], 0u);
  std::filesystem::remove_all(dir);
}

TEST(Jobs, StepFaultFailsTheJobWithItsMessage) {
  FaultGuard guard("jobs.step=throw@nth:2");
  runtime::TaskQueue queue(2);
  serve::JobManager jobs(queue);

  const std::string id = jobs.submit(invdes_spec(5));
  const io::JsonValue status = wait_terminal(jobs, id);
  EXPECT_EQ(status.at("state").as_string(), "failed");
  const io::JsonValue result = jobs.result(id);
  EXPECT_FALSE(result.at("ok").as_bool());
  EXPECT_EQ(result.at("error").at("code").as_string(), "job_failed");
  EXPECT_NE(result.at("error").at("message").as_string().find("injected"),
            std::string::npos);
  EXPECT_EQ(jobs.stats()[serve::JobsCounter::Failed], 1u);
}

// --- hostile journal files ---------------------------------------------------

namespace {

std::string read_all(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// Resume `id` from the given manifest and journal bytes with a drained
/// manager, so no mutated spec runs (job specs are not cost-bounded yet).
/// The job must be skipped with a warning or adopted with a status that
/// answers; returns true when it was adopted.
bool resume_skips_or_adopts(runtime::TaskQueue& queue, const std::string& dir,
                            const std::string& id, const std::string& manifest,
                            const std::string& journal) {
  std::ofstream(dir + "/" + id + ".json", std::ios::binary | std::ios::trunc) << manifest;
  std::ofstream(dir + "/" + id + ".journal", std::ios::binary | std::ios::trunc) << journal;
  serve::JobsOptions options;
  options.journal_dir = dir;
  std::ostringstream log;
  serve::JobManager jobs(queue, options, &log);
  jobs.drain();
  try {
    (void)jobs.resume_journaled();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "resume threw " << e.what();
    return false;
  }
  bool adopted = false;
  const io::JsonValue listed = jobs.list();
  for (const auto& j : listed.at("jobs").as_array()) {
    adopted = adopted || j.at("id").as_string() == id;
  }
  if (adopted) {
    EXPECT_NO_THROW(EXPECT_TRUE(jobs.status(id).at("state").is_string()));
  } else {
    EXPECT_NE(log.str().find("warning"), std::string::npos) << "skipped silently";
    EXPECT_NE(log.str().find(id), std::string::npos) << log.str();
  }
  return adopted;
}

}  // namespace

TEST(Jobs, ResumeStopsAtAJournalLineMissingAField) {
  FaultGuard guard("");
  const std::string dir = scratch_dir("missing_field");

  // Park a job while journal writes fail, so its journal keeps one line
  // per completed step (as in the corpus test below).
  std::string id;
  {
    runtime::TaskQueue queue(2);
    serve::JobsOptions options;
    options.journal_dir = dir;
    std::ostringstream log;
    serve::JobManager jobs(queue, options, &log);
    id = jobs.submit(invdes_spec(40));
    wait_step(jobs, id, 3);
    fault::arm_from_spec("jobs.journal=io");
    jobs.drain();
  }
  fault::disarm_all();

  // Append a copy of the last line that claims step 39 but lacks `solves`:
  // it parses, yet it is not a complete step.
  const std::string path = dir + "/" + id + ".journal";
  const std::string journal = read_all(path);
  ASSERT_GE(journal.size(), 2u);
  const std::size_t cut = journal.rfind('\n', journal.size() - 2);
  io::JsonValue line =
      io::json_parse(journal.substr(cut == std::string::npos ? 0 : cut + 1));
  const int last_step = static_cast<int>(line.at("step").as_int());
  ASSERT_LT(last_step, 39);
  line["step"] = 39;
  line.as_object().erase("solves");
  std::ofstream(path, std::ios::binary | std::ios::app) << line.dump() << '\n';

  runtime::TaskQueue queue(1);
  serve::JobsOptions options;
  options.journal_dir = dir;
  std::ostringstream log;
  serve::JobManager jobs(queue, options, &log);
  jobs.drain();  // adopt the job without running it
  EXPECT_EQ(jobs.resume_journaled(), 1);
  EXPECT_EQ(jobs.status(id).at("step").as_int(), last_step);
  const io::JsonValue manifest = io::json_load(dir + "/" + id + ".json");
  EXPECT_EQ(manifest.at("step").as_int(), last_step);
  EXPECT_EQ(manifest.at("step").as_int(), manifest.at("checkpoint").at("step").as_int());
  std::filesystem::remove_all(dir);
}

TEST(Jobs, MutatedManifestsAndJournalsAreSkippedOrAdopted) {
  FaultGuard guard("");
  const std::string dir = scratch_dir("corpus");

  // Park a job a few steps in while every jobs.journal write fails: the
  // park's compaction cannot save the manifest, so it keeps the journal,
  // and the files hold the submit-time manifest plus one line per step.
  std::string id;
  {
    runtime::TaskQueue queue(2);
    serve::JobsOptions options;
    options.journal_dir = dir;
    std::ostringstream log;
    serve::JobManager jobs(queue, options, &log);
    id = jobs.submit(invdes_spec(40));
    wait_step(jobs, id, 3);
    fault::arm_from_spec("jobs.journal=io");
    jobs.drain();
  }
  fault::disarm_all();
  const std::string manifest = read_all(dir + "/" + id + ".json");
  const std::string journal = read_all(dir + "/" + id + ".journal");
  ASSERT_FALSE(manifest.empty());
  ASSERT_GE(std::count(journal.begin(), journal.end(), '\n'), 3);

  runtime::TaskQueue queue(1);
  ASSERT_TRUE(resume_skips_or_adopts(queue, dir, id, manifest, journal));
  std::size_t adopted = 0, skipped = 0;
  for (const std::string& m : maps::test::json_mutants(manifest, 400, 59)) {
    SCOPED_TRACE("manifest mutant: " + m);
    resume_skips_or_adopts(queue, dir, id, m, journal) ? ++adopted : ++skipped;
  }
  EXPECT_GT(adopted, 0u);
  EXPECT_GT(skipped, 0u);
  for (const std::string& m : maps::test::json_mutants(journal, 200, 61)) {
    // A mutated journal never costs the job: the manifest alone is valid.
    EXPECT_TRUE(resume_skips_or_adopts(queue, dir, id, manifest, m));
  }
  std::filesystem::remove_all(dir);
}
