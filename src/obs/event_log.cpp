#include "obs/event_log.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/clock.h"

namespace swsim::obs {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "?";
}

LogLevel parse_log_level(const std::string& s) {
  if (s == "debug") return LogLevel::kDebug;
  if (s == "info") return LogLevel::kInfo;
  if (s == "warn") return LogLevel::kWarn;
  if (s == "error") return LogLevel::kError;
  throw std::invalid_argument("--log-level: unknown level '" + s +
                              "' (want debug|info|warn|error)");
}

EventLog& EventLog::global() {
  static EventLog* log = new EventLog();
  return *log;
}

void EventLog::open(const std::string& path, LogLevel min_level) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!*file) {
    throw std::runtime_error("event log: cannot open '" + path +
                             "' for writing");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  owned_sink_ = std::move(file);
  sink_ = owned_sink_.get();
  min_level_.store(static_cast<int>(min_level), std::memory_order_relaxed);
  armed_.store(true, std::memory_order_relaxed);
}

void EventLog::open_stream(std::ostream* sink, LogLevel min_level) {
  std::lock_guard<std::mutex> lock(mutex_);
  owned_sink_.reset();
  sink_ = sink;
  min_level_.store(static_cast<int>(min_level), std::memory_order_relaxed);
  armed_.store(sink != nullptr, std::memory_order_relaxed);
}

void EventLog::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_.store(false, std::memory_order_relaxed);
  owned_sink_.reset();
  sink_ = nullptr;
}

void EventLog::write_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!sink_) return;  // closed between enabled() and emit(); drop quietly
  *sink_ << line << '\n';
  sink_->flush();
}

EventLog::Event::Event(EventLog* log, LogLevel level, const char* name,
                       std::uint64_t t_us)
    : log_(log), level_(level) {
  if (t_us == 0) t_us = wall_now_us();
  line_.begin_object()
      .field("t_us", t_us)
      .field("ts", format_iso8601_us(t_us))
      .field("level", to_string(level))
      .field("event", name);
}

EventLog::Event& EventLog::Event::str(const char* key,
                                      const std::string& value) {
  line_.field(key, value);
  return *this;
}

EventLog::Event& EventLog::Event::num(const char* key, double value) {
  line_.field(key, value);
  return *this;
}

EventLog::Event& EventLog::Event::uint(const char* key, std::uint64_t value) {
  line_.field(key, value);
  return *this;
}

EventLog::Event& EventLog::Event::hex(const char* key, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  line_.field(key, buf);
  return *this;
}

EventLog::Event& EventLog::Event::boolean(const char* key, bool value) {
  line_.field(key, value);
  return *this;
}

void EventLog::Event::emit() {
  if (emitted_) return;
  emitted_ = true;
  // Callers guard with enabled() before building fields; re-checking here
  // keeps a below-threshold line from leaking if one doesn't.
  if (!log_->enabled(level_)) return;
  log_->write_line(line_.end_object().str());
}

EventLog::Event EventLog::event(LogLevel level, const char* name,
                                std::uint64_t t_us) {
  return Event(this, level, name, t_us);
}

}  // namespace swsim::obs
