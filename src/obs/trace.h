// Lock-cheap tracing: TraceSession + RAII Span, exported as Chrome
// trace_event JSON (load the file in chrome://tracing or Perfetto).
//
// Design:
//   * One process-global TraceSession (leaky singleton). start() arms it;
//     while disarmed a Span construction costs exactly one relaxed atomic
//     load — the same contract as the robust::FaultPlan hooks — so spans
//     can stay compiled into release hot paths.
//   * Each thread records into its own buffer (created on first use,
//     registered with the session, owned by the session for the process
//     lifetime). A buffer has a private mutex that only the owning thread
//     and the exporter ever touch, so recording is one uncontended lock —
//     no global lock on the hot path.
//   * Spans are Chrome "X" (complete) events: name, category, start
//     timestamp, duration, thread id. The viewer nests events on a thread
//     by time containment, so natural C++ scope nesting renders as a
//     flame graph with no explicit parent bookkeeping.
//   * Flow events ("s"/"t"/"f" with a shared id) draw arrows across
//     threads — and, after `swsim trace merge`, across processes: the
//     client stamps a trace_id into each request, both sides derive the
//     same flow id from it (flow_hash), and the viewer connects the
//     client span to the server's admission/dispatch/solver spans.
//   * set_thread_name() labels a thread ("worker-3") via a Chrome "M"
//     metadata event; the engine's pool workers call it at startup.
//   * Trace timestamps are obs::now_us() — monotonic microseconds since
//     process start, NOT comparable across processes. chrome_json()
//     therefore exports otherData.wall_anchor_us (epoch µs at ts 0) so
//     `swsim trace merge` can rebase multiple processes onto one clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace swsim::obs {

namespace detail {
extern std::atomic<bool> g_trace_armed;

// The flow id the current thread is working under (0 = none). Set by
// ScopedFlow; read by lower layers (the scheduler's job spans) to bind
// their events to the request that spawned them.
extern thread_local std::uint64_t g_current_flow;

struct TraceEvent {
  std::string name;
  const char* cat = "swsim";
  double ts_us = 0.0;
  double dur_us = 0.0;
  // Chrome phase: 'X' complete (the default), or a flow phase
  // 's' (start) / 't' (step) / 'f' (finish). Flow phases use flow_id
  // and ignore dur_us.
  char ph = 'X';
  std::uint64_t flow_id = 0;
  // Optional pre-rendered JSON object ("{...}") emitted as "args".
  std::string args;
};

// Per-thread event buffer; owned by the session, referenced by one thread.
struct ThreadBuffer {
  std::mutex mutex;
  std::uint32_t tid = 0;
  std::string thread_name;
  std::vector<TraceEvent> events;
};

ThreadBuffer& this_thread_buffer();
}  // namespace detail

// True while a TraceSession is collecting (one relaxed load).
inline bool tracing() {
  return detail::g_trace_armed.load(std::memory_order_relaxed);
}

class TraceSession {
 public:
  // The process-global session every Span records into.
  static TraceSession& global();

  void start();  // arm; spans opened from now on are recorded
  void stop();   // disarm; already-buffered events are kept until clear()
  bool active() const { return tracing(); }

  // Total buffered events across all thread buffers.
  std::size_t event_count();

  // Chrome trace_event JSON (the {"traceEvents": [...]} wrapper form).
  // Includes otherData.wall_anchor_us: epoch microseconds corresponding
  // to trace timestamp 0, the rebasing key for `swsim trace merge`.
  std::string chrome_json();

  // Drops all buffered events (thread buffers stay registered).
  void clear();

  // Internal: called by detail::this_thread_buffer() on first use.
  detail::ThreadBuffer& register_thread();

 private:
  TraceSession() = default;
  std::mutex mutex_;  // guards the buffer list, not the hot path
  std::vector<std::unique_ptr<detail::ThreadBuffer>> buffers_;
  std::atomic<std::uint32_t> next_tid_{0};
};

// RAII span: records one complete event over its lifetime when tracing is
// armed at construction; otherwise a no-op (one relaxed load).
class Span {
 public:
  explicit Span(const char* name, const char* cat = "swsim") {
    if (tracing()) begin(name, cat, nullptr);
  }
  // Dynamic-name overload: the string is only copied when armed.
  Span(const std::string& name, const char* cat = "swsim") {
    if (tracing()) begin(name.c_str(), cat, nullptr);
  }
  // With args: `args_json` must be a JSON object ("{...}"); only copied
  // when armed.
  Span(const std::string& name, const char* cat, const std::string& args_json) {
    if (tracing()) begin(name.c_str(), cat, &args_json);
  }
  ~Span() {
    if (armed_) end();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name, const char* cat, const std::string* args_json);
  void end();

  bool armed_ = false;
  double t0_us_ = 0.0;
  const char* cat_ = nullptr;
  std::string name_;
  std::string args_;
};

// Records a complete event [ts_us, now) after the fact — for chunked
// instrumentation (e.g. a block of LLG steps) where an RAII scope per
// event is impractical. No-op when tracing is disarmed.
void record_complete(const std::string& name, const char* cat, double ts_us);

// Records a Chrome flow event at "now" on the calling thread. `phase` is
// 's' (start), 't' (step) or 'f' (finish); events sharing `id` are drawn
// as one arrow chain. The event binds to the enclosing slice, so call it
// inside the Span it should attach to. No-op when tracing is disarmed.
void record_flow(const std::string& name, const char* cat, std::uint64_t id,
                 char phase);

// Names the calling thread in the exported trace. Cheap, call once per
// thread; safe (and remembered) whether or not a session is active yet.
void set_thread_name(const std::string& name);

// The flow id the calling thread currently works under (0 = none).
inline std::uint64_t current_flow_id() { return detail::g_current_flow; }

// Sets the calling thread's flow id for a scope; lower layers (e.g. the
// scheduler) capture it to bind their spans to the originating request.
class ScopedFlow {
 public:
  explicit ScopedFlow(std::uint64_t id) : prev_(detail::g_current_flow) {
    detail::g_current_flow = id;
  }
  ~ScopedFlow() { detail::g_current_flow = prev_; }

  ScopedFlow(const ScopedFlow&) = delete;
  ScopedFlow& operator=(const ScopedFlow&) = delete;

 private:
  std::uint64_t prev_;
};

// FNV-1a over `s`: the deterministic trace-id → flow-id mapping both the
// client and the server apply, so their flow events share an id without
// any negotiation. Never returns 0 (0 means "no flow").
inline std::uint64_t flow_hash(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= static_cast<std::uint64_t>(c);
    h *= 1099511628211ull;
  }
  return h == 0 ? 1u : h;
}

}  // namespace swsim::obs
