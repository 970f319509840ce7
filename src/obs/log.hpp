// Leveled structured logging for the serve/jobs/datagen components.
//
// Two output formats, switched process-wide by the serve config
// (`log_format`: `text` | `json`):
//
//   text  `[component] message trace=<id>`           (the historical shape;
//         operator greps and the CI smoke assertions keep working)
//   json  `{"component":"serve","level":"info","msg":"...",
//          "trace":"r-...","ts":1754640000123}`      (one NDJSON object per
//         line, epoch-milliseconds timestamp)
//
// Levels: debug < info < warn < error < off. `log_enabled(level)` is one
// relaxed atomic load — call sites that format expensive messages guard on
// it; plain `log_to` calls filter internally.
//
// Streams: components that already own an output stream (run_serve's log
// stream, the HTTP server's log) pass it to `log_to` / `format_line` and
// keep their existing locking. Code with no stream at
// hand (the slow-request dump, ambient warnings) uses `log_global`, which
// writes to the process sink (default stderr, redirected by run_serve to
// its log stream) under an internal mutex so concurrent lines never
// interleave.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

namespace maps::obs {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };
enum class LogFormat { Text = 0, Json = 1 };

LogLevel log_level();
void set_log_level(LogLevel level);
LogFormat log_format();
void set_log_format(LogFormat format);

/// "debug"/"info"/"warn"/"error"/"off".
const char* level_name(LogLevel level);
/// Parse a level name; throws MapsError on anything else.
LogLevel parse_log_level(std::string_view name);
/// Parse "text"/"json"; throws MapsError on anything else.
LogFormat parse_log_format(std::string_view name);

/// True when `level` passes the process filter (one relaxed load).
bool log_enabled(LogLevel level);

/// One finished log line (including the trailing newline) in the current
/// format. Does not filter — pair with log_enabled for buffered writers.
std::string format_line(LogLevel level, std::string_view component,
                        std::string_view message, std::string_view trace_id = {});

/// Filtered write to `out` (null-safe, no locking — the caller owns the
/// stream and its synchronization, exactly like the ostream code it
/// replaces).
void log_to(std::ostream* out, LogLevel level, std::string_view component,
            std::string_view message, std::string_view trace_id = {});

/// The process-wide sink for stream-less call sites. Default: stderr.
void set_log_sink(std::ostream* out);

/// Filtered write to the process sink under an internal mutex.
void log_global(LogLevel level, std::string_view component,
                std::string_view message, std::string_view trace_id = {});

/// Write one pre-rendered NDJSON line (no trailing newline in `line`) to
/// the process sink under the same mutex — the slow-request span dump.
void write_raw_line(const std::string& line);

}  // namespace maps::obs
