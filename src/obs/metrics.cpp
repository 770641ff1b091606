#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "obs/clock.h"
#include "obs/json.h"

namespace swsim::obs {

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t n = counts[i];
    if (n == 0) continue;
    if (static_cast<double>(cumulative + n) >= rank) {
      if (i >= bounds.size()) {
        // Overflow bucket: no upper bound to interpolate toward.
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double within =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(n);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, within));
    }
    cumulative += n;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

namespace detail {
std::atomic<bool> g_metrics_armed{false};
}  // namespace detail

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) bounds_ = latency_seconds_bounds();
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i] > bounds_[i - 1])) {
      throw std::invalid_argument(
          "Histogram: bucket bounds must be strictly increasing");
    }
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

std::vector<double> Histogram::latency_seconds_bounds() {
  return {1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
          1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1,  0.2,  0.5,
          1.0,  2.0,  5.0,  10.0, 30.0, 100.0};
}

void Histogram::observe(double v) {
  if (!metrics_armed()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counters_snapshot() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(counters_.size());
    for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, std::int64_t>>
MetricsRegistry::gauges_snapshot() const {
  std::vector<std::pair<std::string, std::int64_t>> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, Histogram::Snapshot>>
MetricsRegistry::histograms_snapshot() const {
  std::vector<std::pair<std::string, Histogram::Snapshot>> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      out.emplace_back(name, h->snapshot());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::string MetricsRegistry::json() const {
  // Dumps iterate name-sorted snapshots (the storage is hash-ordered), so
  // the byte layout is a pure function of the metric state — diffable, and
  // stable across registration orders.
  JsonWriter w;
  w.begin_object().key("counters").begin_object();
  for (const auto& [name, value] : counters_snapshot()) w.field(name, value);
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, value] : gauges_snapshot()) w.field(name, value);
  w.end_object().key("histograms").begin_object();
  for (const auto& [name, s] : histograms_snapshot()) {
    w.key(name)
        .begin_object()
        .field("count", s.count)
        .field("sum", s.sum)
        .key("buckets")
        .begin_array();
    for (std::size_t i = 0; i < s.counts.size(); ++i) {
      w.begin_array();
      if (i < s.bounds.size()) {
        w.value(s.bounds[i]);
      } else {
        w.value("inf");
      }
      w.value(s.counts[i]).end_array();
    }
    w.end_array().end_object();
  }
  return w.end_object().end_object().take();
}

ScopedTimerUs::ScopedTimerUs(Counter& us_counter) {
  if (!metrics_armed()) return;
  c_ = &us_counter;
  t0_us_ = now_us();
}

ScopedTimerUs::~ScopedTimerUs() {
  if (!c_) return;
  c_->add(elapsed_us(t0_us_, now_us()));
}

ScopedLatency::ScopedLatency(Histogram& h) {
  if (!metrics_armed()) return;
  h_ = &h;
  t0_us_ = now_us();
}

ScopedLatency::~ScopedLatency() {
  if (!h_) return;
  h_->observe((now_us() - t0_us_) * 1e-6);
}

}  // namespace swsim::obs
