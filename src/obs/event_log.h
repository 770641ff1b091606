// Structured event log: one JSON object per line (JSONL).
//
// The robust layer publishes its notable occurrences here — watchdog
// trips, step-halving retries, job retries/timeouts/failures, config
// quarantines, cache evictions — instead of ad-hoc stderr prints. Every
// line carries a wall-clock timestamp (epoch microseconds + ISO-8601), a
// level, an event name, and event-specific fields; all strings are
// JSON-escaped, so hostile config keys or exception messages can never
// break the log's parseability.
//
//   {"t_us":1754450000123456,"ts":"2026-08-06T03:13:20.123456Z",
//    "level":"warn","event":"quarantine","gate":"micromag-triangle-MAJ3",
//    "config_key":"0x9e3779b97f4a7c15","strikes":2}
//
// Usage (the armed check keeps disarmed cost at one relaxed load; build
// fields only inside it):
//   auto& log = obs::EventLog::global();
//   if (log.enabled(obs::LogLevel::kWarn)) {
//     log.event(obs::LogLevel::kWarn, "quarantine")
//         .str("gate", name).hex("config_key", key).uint("strikes", n)
//         .emit();
//   }
//
// Writing is serialized by one mutex (a leaf lock — never taken around
// other obs or engine locks' acquisition sites) and flushed per line so a
// crashed run keeps everything emitted before the crash.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "obs/json.h"

namespace swsim::obs {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* to_string(LogLevel level);
// "debug" | "info" | "warn" | "error"; throws std::invalid_argument
// otherwise (a CLI usage error).
LogLevel parse_log_level(const std::string& s);

class EventLog {
 public:
  static EventLog& global();

  // Opens (truncating) a JSONL file and arms the log at `min_level`.
  // Throws std::runtime_error when the file cannot be created.
  void open(const std::string& path, LogLevel min_level = LogLevel::kInfo);
  // Arms the log against a caller-owned stream (tests). The stream must
  // outlive the log or be detached with close().
  void open_stream(std::ostream* sink, LogLevel min_level = LogLevel::kInfo);
  void close();

  bool enabled(LogLevel level) const {
    return armed_.load(std::memory_order_relaxed) &&
           static_cast<int>(level) >= min_level_.load(std::memory_order_relaxed);
  }

  // Builder for one log line. Stamped with wall_now_us() at creation
  // unless `t_us` is given (nonzero) — the hook for callers that must
  // share one timestamp between the log and another record (FailureReport).
  class Event {
   public:
    Event& str(const char* key, const std::string& value);
    // NaN and infinities are written as null.
    Event& num(const char* key, double value);
    Event& uint(const char* key, std::uint64_t value);
    Event& hex(const char* key, std::uint64_t value);  // "0x..." string
    Event& boolean(const char* key, bool value);
    // Writes the line (no-op when the log is disarmed or the event's
    // level is below the armed min_level — filtering is enforced here,
    // not just at the enabled() guard).
    void emit();

   private:
    friend class EventLog;
    Event(EventLog* log, LogLevel level, const char* name,
          std::uint64_t t_us);
    EventLog* log_;
    LogLevel level_;
    JsonWriter line_;
    bool emitted_ = false;
  };

  Event event(LogLevel level, const char* name, std::uint64_t t_us = 0);

 private:
  EventLog() = default;
  void write_line(const std::string& line);

  std::atomic<bool> armed_{false};
  std::atomic<int> min_level_{static_cast<int>(LogLevel::kInfo)};
  std::mutex mutex_;
  std::unique_ptr<std::ostream> owned_sink_;
  std::ostream* sink_ = nullptr;
};

}  // namespace swsim::obs
