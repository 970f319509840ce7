#include "runtime/durable.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>
#include <utility>

#include "runtime/fault.hpp"

namespace maps::runtime::durable {

namespace {

// Transient I/O (a momentarily full or slow disk, an NFS hiccup) must not
// abort an hours-long datagen run or a minutes-long served job. The jitter
// keeps a fleet of writers on one recovering disk out of lockstep.
constexpr int kIoAttempts = 3;

void io_retry_backoff(int attempt) {
  static std::atomic<unsigned> salt{0};
  const double jitter = static_cast<double>(salt.fetch_add(1) % 7) * 0.1;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      static_cast<double>(1 << (attempt - 1)) + jitter));
}

/// Run `attempt` under the retry policy. `rollback`, when set, runs after
/// every failed attempt; if it fails, the failure surfaces at once.
void with_retries(std::string_view fault_point, int* retries,
                  const std::function<void()>& attempt,
                  const std::function<bool()>& rollback = {}) {
  for (int n = 1;; ++n) {
    try {
      if (fault::point(fault_point)) {
        throw MapsError(std::string(fault_point) + ": injected I/O failure");
      }
      attempt();
      return;
    } catch (const MapsError&) {
      if ((rollback && !rollback()) || n >= kIoAttempts) throw;
      if (retries != nullptr) ++*retries;
      io_retry_backoff(n);
    }
  }
}

}  // namespace

void atomic_write(const std::string& path, std::string_view text,
                  std::string_view fault_point, int* retries) {
  const std::string tmp = path + ".tmp";
  with_retries(fault_point, retries, [&] {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    maps::require(f != nullptr, "cannot open " + tmp);
    const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    // fclose flushes the last buffer, so only its result says the bytes landed.
    if (std::fclose(f) != 0 || !wrote || std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      throw MapsError("cannot write " + path);
    }
  });
}

void replay(const std::string& path,
            const std::function<void(const std::string&)>& consume) {
  std::ifstream is(path, std::ios::binary);
  std::string line;
  try {
    while (std::getline(is, line)) {
      if (!line.empty()) consume(line);
    }
  } catch (const std::exception&) {
    // The rejected line and everything after it are uncommitted.
  }
}

LineLog::LineLog(std::string path)
    : path_(std::move(path)), file_(std::fopen(path_.c_str(), "ab")) {
  maps::require(file_ != nullptr, "cannot open " + path_);
}

void LineLog::append(std::string_view line, std::string_view fault_point,
                     int* retries) {
  maps::require(file_ != nullptr, "append to closed log " + path_);
  std::FILE* f = file_.get();
  // Every earlier append was flushed, so ftell is the committed size.
  const long committed = std::ftell(f);
  maps::require(committed >= 0, "ftell on " + path_ + " failed");
  with_retries(
      fault_point, retries,
      [&] {
        const bool wrote = std::fwrite(line.data(), 1, line.size(), f) == line.size() &&
                           std::fputc('\n', f) != EOF;
        maps::require(wrote && std::fflush(f) == 0, "cannot append to " + path_);
      },
      [&] {
        std::clearerr(f);
        return ::ftruncate(::fileno(f), static_cast<off_t>(committed)) == 0 &&
               std::fseek(f, committed, SEEK_SET) == 0;
      });
}

void LineLog::truncate(std::string_view fault_point, int* retries) {
  maps::require(file_ != nullptr, "truncate of closed log " + path_);
  with_retries(fault_point, retries, [&] {
    maps::require(::ftruncate(::fileno(file_.get()), 0) == 0 &&
                      std::fseek(file_.get(), 0, SEEK_SET) == 0,
                  "cannot truncate " + path_);
  });
}

}  // namespace maps::runtime::durable
