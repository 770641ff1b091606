#include "obs/trace.h"

#include <cstdio>
#include <string_view>

#include "obs/clock.h"
#include "obs/json.h"

namespace swsim::obs {

namespace detail {

std::atomic<bool> g_trace_armed{false};

thread_local std::uint64_t g_current_flow = 0;

ThreadBuffer& this_thread_buffer() {
  // The pointer lives as long as the thread; the buffer itself is owned by
  // the session and outlives the thread, so late events (and the exporter)
  // never touch freed memory.
  thread_local ThreadBuffer* buf = &TraceSession::global().register_thread();
  return *buf;
}

}  // namespace detail

TraceSession& TraceSession::global() {
  // Leaky singleton: pool worker threads may record spans during static
  // destruction of the main thread's objects; never destroy the session.
  static TraceSession* session = new TraceSession();
  return *session;
}

detail::ThreadBuffer& TraceSession::register_thread() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<detail::ThreadBuffer>());
  buffers_.back()->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  return *buffers_.back();
}

void TraceSession::start() {
  detail::g_trace_armed.store(true, std::memory_order_relaxed);
}

void TraceSession::stop() {
  detail::g_trace_armed.store(false, std::memory_order_relaxed);
}

std::size_t TraceSession::event_count() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> bl(b->mutex);
    n += b->events.size();
  }
  return n;
}

void TraceSession::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> bl(b->mutex);
    b->events.clear();
  }
}

std::string TraceSession::chrome_json() {
  // Epoch microseconds at trace timestamp 0: the key `swsim trace merge`
  // uses to rebase traces from different processes onto one timeline.
  const auto anchor = static_cast<long long>(
      static_cast<double>(wall_now_us()) - now_us());
  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> bl(b->mutex);
    if (!b->thread_name.empty()) {
      w.begin_object()
          .field("name", "thread_name")
          .field("ph", "M")
          .field("pid", 1)
          .field("tid", b->tid)
          .key("args")
          .begin_object()
          .field("name", b->thread_name)
          .end_object()
          .end_object();
    }
    for (const auto& e : b->events) {
      w.begin_object()
          .field("name", e.name)
          .field("cat", e.cat)
          .field("ph", std::string_view(&e.ph, 1))
          .field("ts", e.ts_us);
      if (e.ph == 'X') {
        w.field("dur", e.dur_us);
      } else {
        // Flow event: the shared arrow id, as a hex string so 64-bit ids
        // survive JSON double precision.
        char id[19];
        std::snprintf(id, sizeof id, "0x%llx",
                      static_cast<unsigned long long>(e.flow_id));
        w.field("id", id);
        if (e.ph == 'f') w.field("bp", "e");
      }
      w.field("pid", 1).field("tid", b->tid);
      if (!e.args.empty()) w.key("args").raw(e.args);
      w.end_object();
    }
  }
  w.end_array()
      .key("otherData")
      .begin_object()
      .field("wall_anchor_us", anchor)
      .end_object();
  return w.end_object().take();
}

void Span::begin(const char* name, const char* cat,
                 const std::string* args_json) {
  armed_ = true;
  name_ = name;
  cat_ = cat;
  if (args_json) args_ = *args_json;
  t0_us_ = now_us();
}

void Span::end() {
  const double t1 = now_us();
  detail::ThreadBuffer& buf = detail::this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back({std::move(name_), cat_, t0_us_, t1 - t0_us_, 'X', 0,
                        std::move(args_)});
}

void record_complete(const std::string& name, const char* cat, double ts_us) {
  if (!tracing()) return;
  const double t1 = now_us();
  detail::ThreadBuffer& buf = detail::this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back({name, cat, ts_us, t1 - ts_us, 'X', 0, {}});
}

void record_flow(const std::string& name, const char* cat, std::uint64_t id,
                 char phase) {
  if (!tracing() || id == 0) return;
  const double ts = now_us();
  detail::ThreadBuffer& buf = detail::this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back({name, cat, ts, 0.0, phase, id, {}});
}

void set_thread_name(const std::string& name) {
  detail::ThreadBuffer& buf = detail::this_thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.thread_name = name;
}

}  // namespace swsim::obs
