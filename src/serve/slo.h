// Per-tenant SLO accounting for the serve plane.
//
// Every completed exchange (workload result, shed rejection, parse error)
// is folded into one SloTracker owned by the Server: per tenant (client
// name) and per request kind, fixed-bucket latency histograms split into
// the three phases the daemon can attribute —
//
//   queue_s   time between admission and a dispatcher picking it up
//   engine_s  time inside BatchRunner (the solver bill)
//   render_s  dispatcher time outside the engine (spec building, text
//             rendering, response assembly)
//   total_s   parse-to-serialize wall time the session thread observed
//
// — plus deadline-budget consumption (total_s / granted deadline) and
// shed counters (overloaded / draining / deadline-exceeded, and the
// retryable rollup clients key their backoff on).
//
// Deliberately NOT built on obs::MetricsRegistry: healthz must report SLO
// state when metrics are disarmed, and the fixed std::map layout makes the
// JSON snapshot byte-deterministic for a given multiset of samples
// regardless of session interleaving (tenants and kinds sort
// lexicographically; histogram counts are plain sums).
//
// Tenant cardinality is bounded: after max_tenants distinct client names,
// new names aggregate under "~other" so a client-name flood cannot grow
// the tracker without bound.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "robust/status.h"

namespace swsim::serve {

class SloTracker {
 public:
  // Upper bounds (seconds) of the phase-latency buckets; one overflow
  // bucket past the last bound. Shared by all phases so snapshots are
  // comparable across phases and tenants.
  static const std::vector<double>& latency_bounds();

  // One finished exchange. Phase fields < 0 mean "not measured" (e.g. a
  // request shed before dispatch has no engine phase); budget_consumed
  // < 0 means the request carried no deadline.
  struct Sample {
    std::string tenant;
    std::string kind;  // "truthtable", "yield", "hello", ...
    robust::StatusCode code = robust::StatusCode::kOk;
    double queue_s = -1.0;
    double engine_s = -1.0;
    double render_s = -1.0;
    double total_s = -1.0;
    double budget_consumed = -1.0;
  };

  explicit SloTracker(std::size_t max_tenants = 64);

  void record(const Sample& sample);

  // Fixed-bucket histogram; counts[i] counts samples <=
  // latency_bounds()[i], the last slot is the overflow bucket. Sums are
  // integer microseconds: integer addition commutes, so the snapshot is
  // byte-identical for a given multiset of samples no matter how
  // concurrent sessions interleaved (a double sum would not be).
  struct Hist {
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    std::uint64_t sum_us = 0;
    std::uint64_t max_us = 0;
    // Conservative bucket-upper-bound quantile: the upper bound of the
    // bucket holding the ceil(q * count)-th sample, or max_us in the
    // overflow bucket. (`swsim stats` interpolates inside the bucket
    // instead, HistogramSnapshot::quantile.)
    double quantile(double q) const;
  };

  struct KindStats {
    std::uint64_t requests = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed_overload = 0;
    std::uint64_t shed_draining = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t retryable = 0;  // rollup: responses a client may retry
    std::uint64_t failed = 0;     // non-ok, non-retryable
    Hist queue, engine, render, total;
    std::uint64_t budget_count = 0;     // samples that carried a deadline
    std::uint64_t budget_sum_ppm = 0;   // sum of budget_consumed, ppm units
    std::uint64_t over_budget = 0;      // budget_consumed > 1
  };

  // tenant -> kind -> stats; deterministic (sorted) iteration order.
  using Snapshot = std::map<std::string, std::map<std::string, KindStats>>;
  Snapshot snapshot() const;

  // The healthz "slo" section: one JSON object, byte-deterministic for a
  // given multiset of recorded samples.
  std::string json() const;

  std::uint64_t total_requests() const;

 private:
  KindStats& stats_locked(const std::string& tenant, const std::string& kind);

  mutable std::mutex mutex_;
  std::size_t max_tenants_;
  std::map<std::string, std::map<std::string, KindStats>> tenants_;
  std::uint64_t total_ = 0;
};

}  // namespace swsim::serve
