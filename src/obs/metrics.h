// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// Hot-path contract (the same as the trace spans and FaultPlan hooks):
//   * disarmed, every record call is one relaxed atomic load and returns;
//   * armed, a counter add / gauge set is a single relaxed atomic RMW and
//     a histogram observe is two (bucket + count) plus a CAS-loop sum —
//     no locks on any record path.
// The registry map itself is mutex-protected, but instrumented code looks
// a metric up once (constructor or function-local static) and then holds
// a stable pointer: Counter/Gauge/Histogram objects are never moved or
// destroyed once created (leaky-singleton registry).
//
// Dumps: json() for machines (--metrics-out; `swsim stats` renders it as
// a table). Histograms export count, sum, and per-bucket cumulative-free
// counts, so consumers can compute rates and quantile estimates offline.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace swsim::obs {

// A histogram's counts at one instant (Histogram::Snapshot), or one read
// back from a dump (`swsim stats`).
struct HistogramSnapshot {
  std::vector<double> bounds;        // finite upper bounds
  std::vector<std::uint64_t> counts; // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;

  double mean() const { return count == 0 ? 0.0 : sum / count; }
  // Quantile estimate (q in [0,1]) by linear interpolation inside the
  // containing bucket; the overflow bucket reports its lower bound.
  double quantile(double q) const;
};

namespace detail {
extern std::atomic<bool> g_metrics_armed;

// fetch_add for atomic<double> via CAS (portable across libstdc++ levels).
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

// True while metrics collection is armed (one relaxed load).
inline bool metrics_armed() {
  return detail::g_metrics_armed.load(std::memory_order_relaxed);
}

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!metrics_armed()) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) {
    if (!metrics_armed()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Histogram {
 public:
  // `upper_bounds` must be strictly increasing; an implicit +inf overflow
  // bucket is appended. A value lands in the first bucket with
  // v <= bound ("le" semantics, boundary values inclusive).
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  using Snapshot = HistogramSnapshot;
  Snapshot snapshot() const;
  void reset();

  const std::vector<double>& bounds() const { return bounds_; }

  // Default latency buckets: 1 us .. ~100 s, roughly 1-2-5 per decade.
  static std::vector<double> latency_seconds_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class MetricsRegistry {
 public:
  // The process-global registry (leaky singleton; references it hands out
  // stay valid forever).
  static MetricsRegistry& global();

  static void arm() {
    detail::g_metrics_armed.store(true, std::memory_order_relaxed);
  }
  static void disarm() {
    detail::g_metrics_armed.store(false, std::memory_order_relaxed);
  }

  // Get-or-create by name. A histogram created earlier keeps its original
  // bucket bounds; `bounds` only applies on first creation (empty picks
  // latency_seconds_bounds()).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  // Zeroes every metric (registrations and bucket layouts are kept).
  void reset();

  // Point-in-time copies of every registered metric, sorted
  // lexicographically by name — the iteration surface for dumps and for
  // consumers like obs::RunProfile that aggregate families of counters
  // ("mag.term.*.us") without creating entries as a side effect.
  std::vector<std::pair<std::string, std::uint64_t>> counters_snapshot() const;
  std::vector<std::pair<std::string, std::int64_t>> gauges_snapshot() const;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms_snapshot()
      const;

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {"count":
  // N, "sum": S, "buckets": [[le, n], ...]}}} — `le` of the overflow
  // bucket is the string "inf", and a sum that took a NaN or infinite
  // sample is null. Keys are sorted lexicographically, so two
  // dumps of the same state are byte-identical regardless of registration
  // order — `swsim bench diff` and plain `diff` rely on this.
  std::string json() const;

 private:
  MetricsRegistry() = default;
  mutable std::mutex mutex_;
  // Storage is hash-keyed (lookup is the hot-ish path: once per metric per
  // instrumented object); dumps sort at snapshot time.
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// RAII timing helpers. Disarmed cost: one relaxed load in the constructor
// (the destructor then does nothing — not even a clock read).
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(Counter& us_counter);
  ~ScopedTimerUs();
  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;

 private:
  Counter* c_ = nullptr;
  double t0_us_ = 0.0;
};

class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& h);
  ~ScopedLatency();
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* h_ = nullptr;
  double t0_us_ = 0.0;
};

}  // namespace swsim::obs
