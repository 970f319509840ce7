#include "runtime/shard.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <thread>
#include <utility>

#include "runtime/fault.hpp"

namespace maps::runtime {

namespace {

// Transient shard I/O (momentarily full/slow disk, NFS hiccup) must not
// abort an hours-long datagen run: journal appends, manifest saves and
// journal compactions retry up to kIoAttempts times with exponential
// backoff plus a small deterministic jitter, so a fleet of shards on one
// recovering disk doesn't retry in lockstep.
constexpr int kIoAttempts = 3;

void io_retry_backoff(int attempt) {
  static std::atomic<unsigned> salt{0};
  const double jitter = static_cast<double>(salt.fetch_add(1) % 7) * 0.1;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      static_cast<double>(1 << (attempt - 1)) + jitter));
}

constexpr long long kIntMax = std::numeric_limits<int>::max();
constexpr long long kCountMax = std::numeric_limits<long long>::max();

/// Integer field `key` of `v`, required to lie in [lo, hi].
long long count_field(const io::JsonValue& v, const char* key, long long lo,
                      long long hi) {
  const long long n = v.at(key).as_int();
  maps::require(n >= lo && n <= hi, std::string("shard manifest: ") + key + " " +
                                        std::to_string(n) + " is out of range");
  return n;
}

io::JsonValue entry_to_json(const ShardManifest::Entry& e) {
  io::JsonValue v;
  v["phase"] = e.phase;
  v["pattern"] = static_cast<double>(e.pattern);
  v["bytes"] = static_cast<double>(e.bytes);
  return v;
}

ShardManifest::Entry entry_from_json(const io::JsonValue& v) {
  ShardManifest::Entry e;
  e.phase = static_cast<int>(count_field(v, "phase", 0, kIntMax));
  e.pattern = static_cast<std::uint64_t>(count_field(v, "pattern", 0, kCountMax));
  e.bytes = static_cast<std::uint64_t>(count_field(v, "bytes", 0, kCountMax));
  return e;
}

}  // namespace

std::vector<std::size_t> ShardPlan::owned(std::size_t total) const {
  validate();
  std::vector<std::size_t> out;
  for (std::size_t p = static_cast<std::size_t>(index); p < total;
       p += static_cast<std::size_t>(count)) {
    out.push_back(p);
  }
  return out;
}

ShardPlan ShardPlan::parse(const std::string& spec) {
  const auto slash = spec.find('/');
  maps::require(slash != std::string::npos && slash > 0 && slash + 1 < spec.size(),
                "shard spec must be i/N (e.g. 0/4), got '" + spec + "'");
  ShardPlan plan;
  try {
    std::size_t used = 0;
    plan.index = std::stoi(spec.substr(0, slash), &used);
    maps::require(used == slash, "shard spec: index is not a number");
    plan.count = std::stoi(spec.substr(slash + 1), &used);
    maps::require(used == spec.size() - slash - 1, "shard spec: count is not a number");
  } catch (const MapsError&) {
    throw;
  } catch (const std::exception&) {
    throw MapsError("shard spec must be i/N (e.g. 0/4), got '" + spec + "'");
  }
  plan.validate();
  return plan;
}

void ShardPlan::validate() const {
  maps::require(count >= 1, "shard count must be >= 1");
  maps::require(index >= 0 && index < count,
                "shard index must be in [0, count), got " + std::to_string(index) +
                    "/" + std::to_string(count));
}

std::string shard_part_path(const std::string& output, int index, int count) {
  return output + ".shard-" + std::to_string(index) + "-of-" + std::to_string(count) +
         ".part";
}

std::string shard_manifest_path(const std::string& output, int index, int count) {
  return output + ".shard-" + std::to_string(index) + "-of-" + std::to_string(count) +
         ".manifest.json";
}

std::string shard_journal_path(const std::string& output, int index, int count) {
  return output + ".shard-" + std::to_string(index) + "-of-" + std::to_string(count) +
         ".journal";
}

bool ShardManifest::is_completed(int phase, std::uint64_t pattern) const {
  for (const auto& e : completed) {
    if (e.phase == phase && e.pattern == pattern) return true;
  }
  return false;
}

std::uint64_t ShardManifest::committed_bytes() const {
  return completed.empty() ? 0 : completed.back().bytes;
}

io::JsonValue ShardManifest::to_json() const {
  io::JsonValue v;
  v["dataset"] = dataset_name;
  io::JsonValue shard;
  shard["index"] = shard_index;
  shard["count"] = shard_count;
  v["shard"] = shard;
  v["patterns_total"] = static_cast<double>(patterns_total);
  v["samples_per_pattern"] = static_cast<double>(samples_per_pattern);
  v["phases"] = phases;
  v["done"] = done;
  io::JsonArray entries;
  for (const auto& e : completed) entries.push_back(entry_to_json(e));
  v["completed"] = io::JsonValue(std::move(entries));
  return v;
}

ShardManifest ShardManifest::from_json(const io::JsonValue& v) {
  // Manifests are read back from disk, so every count is range-checked
  // before it is narrowed or used to size anything.
  ShardManifest m;
  m.dataset_name = v.at("dataset").as_string();
  m.shard_count = static_cast<int>(count_field(v.at("shard"), "count", 1, kIntMax));
  m.shard_index =
      static_cast<int>(count_field(v.at("shard"), "index", 0, m.shard_count - 1));
  m.patterns_total =
      static_cast<std::uint64_t>(count_field(v, "patterns_total", 0, kCountMax));
  m.samples_per_pattern =
      static_cast<std::uint64_t>(count_field(v, "samples_per_pattern", 0, kCountMax));
  m.phases = static_cast<int>(count_field(v, "phases", 1, kIntMax));
  m.done = v.at("done").as_bool();
  for (const auto& entry : v.at("completed").as_array()) {
    m.completed.push_back(entry_from_json(entry));
  }
  return m;
}

void ShardManifest::save(const std::string& path) const {
  // Commit atomically: a kill during the write leaves the previous manifest
  // (and thus a consistent resume point) in place. The whole tmp+rename
  // sequence is idempotent, so transient failures simply retry it.
  const std::string tmp = path + ".tmp";
  for (int attempt = 1;; ++attempt) {
    try {
      if (fault::point("manifest.save")) {
        throw MapsError("ShardManifest::save: injected I/O failure");
      }
      io::json_save(to_json(), tmp);
      if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw MapsError("ShardManifest::save: rename to " + path + " failed");
      }
      return;
    } catch (const MapsError&) {
      if (attempt >= kIoAttempts) throw;
      io_retry_backoff(attempt);
    }
  }
}

ShardManifest ShardManifest::load(const std::string& path) {
  return from_json(io::json_load(path));
}

std::size_t ShardManifest::absorb_journal(const std::string& journal_path) {
  std::ifstream is(journal_path, std::ios::binary);
  if (!is.good()) return 0;  // no journal: the manifest is the full record

  // A compaction that crashed between the manifest rename and the journal
  // truncation leaves journal lines that the manifest already contains;
  // skip those instead of double-counting.
  std::set<std::pair<int, std::uint64_t>> seen;
  for (const auto& e : completed) seen.insert({e.phase, e.pattern});

  std::size_t adopted = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    Entry e;
    try {
      e = entry_from_json(io::json_parse(line));
    } catch (const std::exception&) {
      // Torn trailing line from a kill mid-append: everything from here on
      // is uncommitted. Stop — the last fully flushed commit wins.
      break;
    }
    if (!seen.insert({e.phase, e.pattern}).second) continue;
    completed.push_back(e);
    ++adopted;
  }
  return adopted;
}

ShardJournal::ShardJournal(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "ab");
  maps::require(file_ != nullptr, "ShardJournal: cannot open " + path_);
}

ShardJournal::~ShardJournal() { close(); }

void ShardJournal::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void ShardJournal::append(const ShardManifest::Entry& e) {
  maps::require(file_ != nullptr, "ShardJournal::append: journal closed");
  const std::string line = entry_to_json(e).dump() + "\n";
  // The journal's crash contract is "last fully flushed line wins"; a blind
  // rewrite after a partial write would glue the retried line onto the torn
  // one and poison every later line for absorb_journal. Every prior append
  // was flushed, so ftell here is the committed physical size — retries
  // truncate back to it before rewriting.
  const long committed = std::ftell(file_);
  maps::require(committed >= 0, "ShardJournal::append: ftell on " + path_ + " failed");
  for (int attempt = 1;; ++attempt) {
    try {
      if (fault::point("journal.append")) {
        throw MapsError("ShardJournal::append: injected I/O failure");
      }
      const std::size_t wrote = std::fwrite(line.data(), 1, line.size(), file_);
      maps::require(wrote == line.size() && std::fflush(file_) == 0,
                    "ShardJournal::append: write to " + path_ + " failed");
      return;
    } catch (const MapsError&) {
      if (attempt >= kIoAttempts) throw;
      std::clearerr(file_);
      if (::ftruncate(::fileno(file_), static_cast<off_t>(committed)) != 0 ||
          std::fseek(file_, committed, SEEK_SET) != 0) {
        throw;  // cannot restore the committed prefix: surface the failure
      }
      io_retry_backoff(attempt);
    }
  }
}

void ShardJournal::compact(const ShardManifest& manifest,
                           const std::string& manifest_path) {
  // Order matters for crash safety: first make the manifest the full record
  // (atomic rename), only then drop the journal lines it absorbed. A crash
  // in between is healed by absorb_journal's dedup on the next resume.
  manifest.save(manifest_path);
  close();
  for (int attempt = 1;; ++attempt) {
    try {
      if (fault::point("journal.compact")) {
        throw MapsError("ShardJournal::compact: injected I/O failure");
      }
      std::FILE* truncated = std::fopen(path_.c_str(), "wb");
      maps::require(truncated != nullptr,
                    "ShardJournal::compact: cannot truncate " + path_);
      std::fclose(truncated);
      break;
    } catch (const MapsError&) {
      if (attempt >= kIoAttempts) throw;
      io_retry_backoff(attempt);
    }
  }
  file_ = std::fopen(path_.c_str(), "ab");
  maps::require(file_ != nullptr, "ShardJournal::compact: cannot reopen " + path_);
}

}  // namespace maps::runtime
