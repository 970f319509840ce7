#include "runtime/shard.hpp"

#include <limits>
#include <set>
#include <utility>

namespace maps::runtime {

namespace {

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
  // A kill during the write leaves the previous manifest (and thus a
  // consistent resume point) in place. Transient failures retry.
  durable::atomic_write(path, to_json().dump(2) + "\n", "manifest.save");
}

ShardManifest ShardManifest::load(const std::string& path) {
  return from_json(io::json_load(path));
}

std::size_t ShardManifest::absorb_journal(const std::string& journal_path) {
  // A compaction that crashed between the manifest rename and the journal
  // truncation leaves journal lines that the manifest already contains;
  // skip those instead of double-counting.
  std::set<std::pair<int, std::uint64_t>> seen;
  for (const auto& e : completed) seen.insert({e.phase, e.pattern});

  const std::size_t before = completed.size();
  durable::replay(journal_path, [&](const std::string& line) {
    const Entry e = entry_from_json(io::json_parse(line));
    if (seen.insert({e.phase, e.pattern}).second) completed.push_back(e);
  });
  return completed.size() - before;
}

void ShardJournal::append(const ShardManifest::Entry& e) {
  log_.append(entry_to_json(e).dump(), "journal.append");
}

void ShardJournal::compact(const ShardManifest& manifest,
                           const std::string& manifest_path) {
  // Order matters for crash safety: first make the manifest the full record
  // (atomic rename), only then drop the journal lines it absorbed. A crash
  // in between is healed by absorb_journal's dedup on the next resume.
  manifest.save(manifest_path);
  log_.truncate("journal.compact");
}

}  // namespace maps::runtime
