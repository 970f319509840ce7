// maps_cli: the command-line entry point of the MAPS infrastructure.
//
// Every pipeline (dataset acquisition, model training, inverse design) is
// driven by a JSON config with a "task" field; this tool validates and runs
// them and prints a JSON report to stdout, so experiment scripts can be
// plain shell + jq. Failures also land on stdout as a structured JSON error
// ({"ok": false, "error": {...}}) with a nonzero exit code, so a scripted
// fleet of shards can triage a bad config or an unwritable output path
// without scraping stderr.
//
// Sharded dataset generation: `run <config> --shard i/N [--resume]`
// overrides the config's shard keys, one process per shard;
// `merge <config>` reassembles the completed shards into the final dataset.
#include <csignal>
#include <cstdio>
#include <atomic>
#include <iostream>
#include <string>
#include <vector>

#include "io/runners.hpp"
#include "runtime/shard.hpp"
#include "serve/wire.hpp"

namespace {

/// Graceful-shutdown flag for `maps_cli serve`: SIGTERM/SIGINT flip it, the
/// serve loops drain in-flight work under the configured drain deadline,
/// flush the final stats report and exit 0.
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true); }

void install_stop_handlers() {
  struct sigaction sa{};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: the signal must interrupt blocking read()/accept() with
  // EINTR so the serve loops observe the flag instead of blocking forever.
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  maps_cli run <config.json> [--shard i/N] [--resume]\n"
      "                                    execute a config (task: datagen|train|invdes);\n"
      "                                    --shard/--resume select a datagen shard slice\n"
      "  maps_cli merge <config.json>      merge a sharded datagen run into its output\n"
      "  maps_cli serve <config.json> [--http [--port N] [--bind ADDR]]\n"
      "                               [--jobs-dir DIR] [--log-level LEVEL]\n"
      "                                    run the prediction server: ndjson requests\n"
      "                                    on stdin -> replies on stdout, or HTTP/1.1\n"
      "                                    with --http; --port sets its port (default\n"
      "                                    a free one), --bind its listen address\n"
      "                                    (default loopback);\n"
      "                                    --jobs-dir mounts the /v1/jobs API with its\n"
      "                                    crash-safe journal in DIR (HTTP only);\n"
      "                                    --log-level sets the structured-log\n"
      "                                    filter (debug|info|warn|error|off);\n"
      "                                    the stats report lands on stderr\n"
      "  maps_cli validate <config.json>   parse and echo the normalized config\n"
      "  maps_cli example-config <task>    print a starter config for a task\n"
      "  maps_cli devices                  list benchmark devices\n";
  return 1;
}

/// Structured failure report on stdout + nonzero exit, in the serve wire
/// error envelope ({"id": null, "ok": false, "error": {"code", "message"}})
/// so CLI and server failures parse identically. `kind` becomes the code:
/// "config" (malformed/invalid config), "io" (unreadable/unwritable paths),
/// "internal" (everything else).
int fail(const std::string& kind, const std::string& message) {
  const auto err = maps::serve::encode_error(
      maps::io::JsonValue(), maps::serve::WireError{kind, message, 0.0});
  std::cout << err.dump(2) << "\n";
  return 2;
}

std::string classify(const std::string& message) {
  // MapsError messages from the config layer carry their scope prefix; path
  // problems mention open/write/readability.
  for (const char* hint : {"cannot open", "not writable", "write failed",
                           "rename", "missing shard", "truncated"}) {
    if (message.find(hint) != std::string::npos) return "io";
  }
  return "config";
}

int cmd_devices() {
  using namespace maps;
  std::cout << "device        grid(base)  excitations\n";
  for (const auto kind : devices::all_device_kinds()) {
    const auto dev = devices::make_device(kind);
    std::printf("%-13s %lldx%-9lld %zu\n", devices::device_name(kind),
                static_cast<long long>(dev.spec.nx),
                static_cast<long long>(dev.spec.ny), dev.excitations.size());
  }
  return 0;
}

int cmd_example_config(const std::string& task) {
  using namespace maps::io;
  JsonValue v;
  if (task == "datagen") {
    v = DataGenConfig{}.to_json();
  } else if (task == "train") {
    TrainConfig cfg;
    cfg.dataset = "dataset.mapsd";
    v = cfg.to_json();
  } else if (task == "invdes") {
    v = InvDesConfig{}.to_json();
  } else if (task == "serve") {
    v = ServeConfig{}.to_json();
  } else {
    return fail("config",
                "unknown task '" + task + "' (datagen | train | invdes | serve)");
  }
  v["task"] = task;
  std::cout << v.dump(2) << "\n";
  return 0;
}

int cmd_validate(const std::string& path) {
  using namespace maps::io;
  const JsonValue doc = json_load(path);
  const std::string task = doc.at("task").as_string();
  JsonValue body = doc;
  body.as_object().erase("task");
  JsonValue normalized;
  if (task == "datagen") {
    normalized = DataGenConfig::from_json(body).to_json();
  } else if (task == "train") {
    normalized = TrainConfig::from_json(body).to_json();
  } else if (task == "invdes") {
    normalized = InvDesConfig::from_json(body).to_json();
  } else if (task == "serve") {
    normalized = ServeConfig::from_json(body).to_json();
  } else {
    return fail("config", "unknown task '" + task + "'");
  }
  normalized["task"] = task;
  std::cout << normalized.dump(2) << "\n";
  return 0;
}

int cmd_run(const std::string& path, const std::vector<std::string>& flags) {
  using namespace maps::io;
  JsonValue doc = json_load(path);

  // --shard / --resume override the config's shard keys (datagen only).
  bool sharded_flags = false;
  for (std::size_t k = 0; k < flags.size(); ++k) {
    if (flags[k] == "--shard") {
      if (k + 1 >= flags.size()) {
        return fail("config", "--shard requires an i/N argument");
      }
      const auto plan = maps::runtime::ShardPlan::parse(flags[++k]);
      doc["shard_index"] = plan.index;
      doc["shard_count"] = plan.count;
      sharded_flags = true;
    } else if (flags[k] == "--resume") {
      doc["resume"] = true;
      sharded_flags = true;
    } else {
      return fail("config", "unknown flag '" + flags[k] + "'");
    }
  }
  if (sharded_flags && doc.at("task").as_string() != "datagen") {
    return fail("config", "--shard/--resume apply to datagen configs only");
  }

  const auto report = run_config_json(doc, std::cerr);
  std::cout << report.dump(2) << "\n";
  return 0;
}

int cmd_serve(const std::string& path, const std::vector<std::string>& flags) {
  using namespace maps::io;
  JsonValue doc = json_load(path);
  if (doc.has("task") && doc.at("task").as_string() != "serve") {
    return fail("config", "serve requires a serve config (task: serve)");
  }
  for (std::size_t k = 0; k < flags.size(); ++k) {
    if (flags[k] == "--port") {
      if (k + 1 >= flags.size()) return fail("config", "--port requires a number");
      doc["port"] = std::stoi(flags[++k]);
    } else if (flags[k] == "--http") {
      doc["http"] = true;
    } else if (flags[k] == "--bind") {
      if (k + 1 >= flags.size()) {
        return fail("config", "--bind requires an IPv4 address");
      }
      doc["bind_address"] = flags[++k];
    } else if (flags[k] == "--log-level") {
      if (k + 1 >= flags.size()) {
        return fail("config", "--log-level requires debug|info|warn|error|off");
      }
      doc["log_level"] = flags[++k];
    } else if (flags[k] == "--jobs-dir") {
      if (k + 1 >= flags.size()) {
        return fail("config", "--jobs-dir requires a directory path");
      }
      doc["jobs_dir"] = flags[++k];
      doc["jobs"] = true;
    } else {
      return fail("config", "unknown flag '" + flags[k] + "'");
    }
  }
  if (doc.has("task")) doc.as_object().erase("task");
  const auto config = ServeConfig::from_json(doc);
  // SIGTERM/SIGINT request a graceful drain (bounded by drain_deadline_ms),
  // after which the final stats report is still emitted and we exit 0 — a
  // supervisor's stop is an orderly event, not a crash.
  install_stop_handlers();
  // Replies own stdout (the wire protocol); the stats report goes to stderr
  // so scripted clients can still collect it.
  const auto report = run_serve(config, std::cin, std::cout, std::cerr, &g_stop);
  std::cerr << report.dump(2) << "\n";
  return 0;
}

int cmd_merge(const std::string& path) {
  using namespace maps::io;
  const JsonValue doc = json_load(path);
  if (doc.at("task").as_string() != "datagen") {
    return fail("config", "merge applies to datagen configs only");
  }
  JsonValue body = doc;
  body.as_object().erase("task");
  const auto report =
      run_datagen_merge(DataGenConfig::from_json(body), std::cerr);
  std::cout << report.dump(2) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "devices") return cmd_devices();
    if (cmd == "example-config" && argc >= 3) return cmd_example_config(argv[2]);
    if (cmd == "validate" && argc >= 3) return cmd_validate(argv[2]);
    if (cmd == "merge" && argc >= 3) return cmd_merge(argv[2]);
    if (cmd == "serve" && argc >= 3) {
      return cmd_serve(argv[2], {argv + 3, argv + argc});
    }
    if (cmd == "run" && argc >= 3) {
      return cmd_run(argv[2], {argv + 3, argv + argc});
    }
  } catch (const maps::MapsError& e) {
    return fail(classify(e.what()), e.what());
  } catch (const std::exception& e) {
    return fail("internal", e.what());
  }
  return usage();
}
