#include "serve/slo.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"

namespace swsim::serve {

namespace {

// Microsecond-integer conversion used by every accumulator: llround keeps
// the mapping exact for the magnitudes serve latencies reach.
std::uint64_t to_us(double seconds) {
  if (seconds <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::llround(seconds * 1e6));
}

}  // namespace

const std::vector<double>& SloTracker::latency_bounds() {
  static const std::vector<double> bounds = {
      0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
      0.1,    0.25,    0.5,    1.0,   2.5,    5.0,   10.0, 30.0, 60.0};
  return bounds;
}

double SloTracker::Hist::quantile(double q) const {
  if (count == 0) return 0.0;
  const auto& bounds = latency_bounds();
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank && seen > 0) {
      if (i < bounds.size()) return bounds[i];
      // Overflow bucket: the max is the only honest upper bound left.
      return static_cast<double>(max_us) * 1e-6;
    }
  }
  return static_cast<double>(max_us) * 1e-6;
}

SloTracker::SloTracker(std::size_t max_tenants) : max_tenants_(max_tenants) {}

SloTracker::KindStats& SloTracker::stats_locked(const std::string& tenant,
                                                const std::string& kind) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    if (tenants_.size() >= max_tenants_) {
      it = tenants_.try_emplace("~other").first;
    } else {
      it = tenants_.try_emplace(tenant).first;
    }
  }
  return it->second[kind];
}

void SloTracker::record(const Sample& sample) {
  const auto& bounds = latency_bounds();
  const auto observe = [&bounds](Hist& h, double seconds) {
    if (seconds < 0.0) return;
    if (h.counts.empty()) h.counts.assign(bounds.size() + 1, 0);
    const auto bucket = static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), seconds) -
        bounds.begin());
    ++h.counts[bucket];
    ++h.count;
    const std::uint64_t us = to_us(seconds);
    h.sum_us += us;
    h.max_us = std::max(h.max_us, us);
  };

  std::lock_guard<std::mutex> lock(mutex_);
  KindStats& ks = stats_locked(sample.tenant, sample.kind);
  ++ks.requests;
  ++total_;
  using robust::StatusCode;
  switch (sample.code) {
    case StatusCode::kOk:
      ++ks.ok;
      break;
    case StatusCode::kOverloaded:
      ++ks.shed_overload;
      ++ks.retryable;
      break;
    case StatusCode::kDraining:
      ++ks.shed_draining;
      ++ks.retryable;
      break;
    case StatusCode::kDeadlineExceeded:
      ++ks.shed_deadline;
      ++ks.retryable;
      break;
    default:
      if (robust::is_retryable(sample.code)) {
        ++ks.retryable;
      } else {
        ++ks.failed;
      }
      break;
  }
  observe(ks.queue, sample.queue_s);
  observe(ks.engine, sample.engine_s);
  observe(ks.render, sample.render_s);
  observe(ks.total, sample.total_s);
  if (sample.budget_consumed >= 0.0) {
    ++ks.budget_count;
    ks.budget_sum_ppm += static_cast<std::uint64_t>(
        std::llround(sample.budget_consumed * 1e6));
    if (sample.budget_consumed > 1.0) ++ks.over_budget;
  }
}

SloTracker::Snapshot SloTracker::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tenants_;
}

std::uint64_t SloTracker::total_requests() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::string SloTracker::json() const {
  const Snapshot snap = snapshot();
  obs::JsonWriter w;
  w.begin_object()
      .field("requests", total_requests())
      .key("tenants")
      .begin_object();
  for (const auto& [tenant, kinds] : snap) {
    w.key(tenant).begin_object();
    for (const auto& [kind, ks] : kinds) {
      w.key(kind)
          .begin_object()
          .field("requests", ks.requests)
          .field("ok", ks.ok)
          .field("shed_overload", ks.shed_overload)
          .field("shed_draining", ks.shed_draining)
          .field("shed_deadline", ks.shed_deadline)
          .field("retryable", ks.retryable)
          .field("failed", ks.failed);
      const auto phase = [&w](const char* name, const Hist& h) {
        w.key(name)
            .begin_object()
            .field("count", h.count)
            .field("sum_s", static_cast<double>(h.sum_us) * 1e-6)
            .field("p50_s", h.quantile(0.50))
            .field("p95_s", h.quantile(0.95))
            .field("p99_s", h.quantile(0.99))
            .field("max_s", static_cast<double>(h.max_us) * 1e-6)
            .end_object();
      };
      phase("queue", ks.queue);
      phase("engine", ks.engine);
      phase("render", ks.render);
      phase("total", ks.total);
      w.key("budget")
          .begin_object()
          .field("count", ks.budget_count)
          .field("mean_consumed",
                 ks.budget_count == 0
                     ? 0.0
                     : static_cast<double>(ks.budget_sum_ppm) * 1e-6 /
                           static_cast<double>(ks.budget_count))
          .field("over", ks.over_budget)
          .end_object()
          .end_object();
    }
    w.end_object();
  }
  return w.end_object().end_object().take();
}

}  // namespace swsim::serve
