// Durable writes: the one copy of the save protocol that datagen shards
// (shard.cpp) and served jobs (serve/jobs.cpp) share, an atomically replaced
// manifest plus a journal of flushed lines. Callers keep only their record
// format and failure policy. What a write survives (a process kill, not
// power loss: nothing calls fsync) is in README.md.
//
// Every write makes up to 3 attempts, backing off 1 ms then 2 ms plus a
// small jitter. The caller's fault point (fault.hpp) is checked before each
// attempt; an `io` fire fails it like a real write error. `retries`, when
// given, counts the retries, also when the last MapsError is rethrown.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace maps::runtime::durable {

/// Replace `path` with `text`: write `<path>.tmp` and rename it over `path`
/// only once every fwrite and the fclose succeeded. A failed attempt
/// removes the tmp file and leaves `path` as it was.
void atomic_write(const std::string& path, std::string_view text,
                  std::string_view fault_point, int* retries = nullptr);

/// Feed each non-empty line of the file at `path` to `consume`, in order,
/// and stop at the first line it rejects by throwing: a torn line from a
/// kill mid-append, and everything after it, is uncommitted. A missing file
/// has no lines.
void replay(const std::string& path,
            const std::function<void(const std::string&)>& consume);

/// Append-only log of flushed lines (a journal), opened for appending and
/// created if absent.
class LineLog {
 public:
  explicit LineLog(std::string path);

  /// Append `line` and a newline, flushed. Every failed attempt truncates
  /// the file back to its size before this call, so a retried line never
  /// glues onto a torn one; if that rollback fails, the failure surfaces.
  void append(std::string_view line, std::string_view fault_point,
              int* retries = nullptr);
  /// Empty the log; later appends start at byte 0.
  void truncate(std::string_view fault_point, int* retries = nullptr);
  /// Every append was flushed, so closing cannot lose a line.
  void close() { file_.reset(); }

 private:
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::string path_;
  std::unique_ptr<std::FILE, Closer> file_;
};

}  // namespace maps::runtime::durable
