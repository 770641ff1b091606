#include "obs/profile.h"

#include <cmath>
#include <stdexcept>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/physics.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace swsim::obs {

namespace {

// A rate that divided by zero or overflowed must not poison the JSON
// document (NaN/inf are not valid JSON tokens) — clamp to 0.
double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

double number_field(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (!v || !v->is_number()) {
    throw std::runtime_error(std::string("RunProfile: missing numeric field \"") +
                             key + "\"");
  }
  return v->number();
}

std::uint64_t uint_field(const JsonValue& obj, const char* key) {
  const double d = number_field(obj, key);
  return d <= 0.0 ? 0 : static_cast<std::uint64_t>(d);
}

}  // namespace

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

RunProfile RunProfile::collect(double wall_seconds) {
  RunProfile p;
  p.wall_seconds = finite_or_zero(wall_seconds);

  // One snapshot pass: never calls counter()/gauge() by name, which would
  // register zero-valued metrics as a side effect of profiling.
  std::uint64_t term_total_us = 0;
  std::map<std::string, std::uint64_t> term_us;
  const auto& reg = MetricsRegistry::global();
  for (const auto& [name, value] : reg.counters_snapshot()) {
    if (name == "mag.llg.steps") p.llg_steps = value;
    else if (name == "mag.field_evals") p.field_evals = value;
    else if (name == "cache.hits") p.cache_hits = value;
    else if (name == "cache.misses") p.cache_misses = value;
    else if (name == "pool.busy_us") p.pool_busy_us = value;
    else if (name == "engine.jobs.done") p.jobs_done = value;
    else if (name == "engine.jobs.failed") p.jobs_failed = value;
    else if (name == "engine.jobs.retried") p.jobs_retried = value;
    else if (name.rfind("mag.term.", 0) == 0 && name.size() > 12 &&
             name.compare(name.size() - 3, 3, ".us") == 0) {
      const std::string term = name.substr(9, name.size() - 12);
      term_us[term] = value;
      term_total_us += value;
    }
  }
  for (const auto& [name, value] : reg.gauges_snapshot()) {
    if (name == "pool.threads" && value > 0) {
      p.pool_threads = static_cast<std::uint64_t>(value);
    }
  }

  if (term_total_us > 0) {
    for (const auto& [term, us] : term_us) {
      p.term_share[term] = finite_or_zero(static_cast<double>(us) /
                                          static_cast<double>(term_total_us));
    }
  }

  if (p.wall_seconds > 0.0) {
    p.steps_per_second = finite_or_zero(
        static_cast<double>(p.llg_steps) / p.wall_seconds);
    if (p.pool_threads > 0) {
      p.pool_utilization = finite_or_zero(
          static_cast<double>(p.pool_busy_us) /
          (static_cast<double>(p.pool_threads) * p.wall_seconds * 1e6));
    }
  }
  const std::uint64_t lookups = p.cache_hits + p.cache_misses;
  if (lookups > 0) {
    p.cache_hit_rate = finite_or_zero(static_cast<double>(p.cache_hits) /
                                      static_cast<double>(lookups));
  }
  const PhysicsRegistry::Snapshot phys = PhysicsRegistry::global().snapshot();
  for (const auto& [name, stats] : phys.probes) {
    p.physics_probes.push_back({name, stats.windows, stats.amplitude,
                                stats.phase, stats.converged_at});
  }
  p.physics_energy_samples = phys.energy_samples;
  p.physics_total_energy_j = phys.total_energy_j;
  p.physics_exchange_energy_j = phys.exchange_energy_j;
  p.early_stop_saved_steps = phys.early_stop_saved_steps;

  p.peak_rss_bytes = ::swsim::obs::peak_rss_bytes();
  return p;
}

std::string RunProfile::to_json() const {
  JsonWriter w;
  w.begin_object()
      .field("schema", kSchema)
      .field("wall_seconds", finite_or_zero(wall_seconds))
      .field("llg_steps", llg_steps)
      .field("field_evals", field_evals)
      .field("steps_per_second", finite_or_zero(steps_per_second))
      .key("term_share")
      .begin_object();
  for (const auto& [term, share] : term_share) {
    w.field(term, finite_or_zero(share));
  }
  w.end_object()
      .key("cache")
      .begin_object()
      .field("hits", cache_hits)
      .field("misses", cache_misses)
      .field("hit_rate", finite_or_zero(cache_hit_rate))
      .end_object()
      .key("pool")
      .begin_object()
      .field("threads", pool_threads)
      .field("busy_us", pool_busy_us)
      .field("utilization", finite_or_zero(pool_utilization))
      .end_object()
      .key("jobs")
      .begin_object()
      .field("done", jobs_done)
      .field("failed", jobs_failed)
      .field("retried", jobs_retried)
      .end_object()
      .key("physics")
      .begin_object()
      .field("energy_samples", physics_energy_samples)
      .field("total_energy_j", finite_or_zero(physics_total_energy_j))
      .field("exchange_energy_j", finite_or_zero(physics_exchange_energy_j))
      .field("early_stop_saved_steps", early_stop_saved_steps)
      .key("probes")
      .begin_array();
  for (const auto& probe : physics_probes) {
    w.begin_object()
        .field("name", probe.name)
        .field("windows", probe.windows)
        .field("amplitude", finite_or_zero(probe.amplitude))
        .field("phase", finite_or_zero(probe.phase))
        .field("converged_at", finite_or_zero(probe.converged_at))
        .end_object();
  }
  w.end_array().end_object().field("peak_rss_bytes", peak_rss_bytes);
  return w.end_object().take();
}

RunProfile RunProfile::from_json(const JsonValue& root) {
  if (!root.is_object()) {
    throw std::runtime_error("RunProfile: document is not a JSON object");
  }
  const JsonValue* schema = root.find("schema");
  if (!schema || !schema->is_string()) {
    throw std::runtime_error("RunProfile: missing \"schema\"");
  }
  if (schema->str() != kSchema) {
    throw std::runtime_error("RunProfile: unsupported schema \"" +
                             schema->str() + "\" (want " + kSchema + ")");
  }
  RunProfile p;
  p.wall_seconds = number_field(root, "wall_seconds");
  p.llg_steps = uint_field(root, "llg_steps");
  p.field_evals = uint_field(root, "field_evals");
  p.steps_per_second = number_field(root, "steps_per_second");
  const JsonValue* terms = root.find("term_share");
  if (!terms || !terms->is_object()) {
    throw std::runtime_error("RunProfile: missing \"term_share\" object");
  }
  for (const auto& [term, share] : terms->object()) {
    if (!share.is_number()) {
      throw std::runtime_error("RunProfile: term_share[\"" + term +
                               "\"] is not a number");
    }
    p.term_share[term] = share.number();
  }
  const JsonValue* cache = root.find("cache");
  if (!cache || !cache->is_object()) {
    throw std::runtime_error("RunProfile: missing \"cache\" object");
  }
  p.cache_hits = uint_field(*cache, "hits");
  p.cache_misses = uint_field(*cache, "misses");
  p.cache_hit_rate = number_field(*cache, "hit_rate");
  const JsonValue* pool = root.find("pool");
  if (!pool || !pool->is_object()) {
    throw std::runtime_error("RunProfile: missing \"pool\" object");
  }
  p.pool_threads = uint_field(*pool, "threads");
  p.pool_busy_us = uint_field(*pool, "busy_us");
  p.pool_utilization = number_field(*pool, "utilization");
  const JsonValue* jobs = root.find("jobs");
  if (!jobs || !jobs->is_object()) {
    throw std::runtime_error("RunProfile: missing \"jobs\" object");
  }
  p.jobs_done = uint_field(*jobs, "done");
  p.jobs_failed = uint_field(*jobs, "failed");
  p.jobs_retried = uint_field(*jobs, "retried");
  // Optional: documents written before the physics block existed parse as
  // all-zero physics.
  if (const JsonValue* phys = root.find("physics")) {
    if (!phys->is_object()) {
      throw std::runtime_error("RunProfile: \"physics\" is not an object");
    }
    p.physics_energy_samples = uint_field(*phys, "energy_samples");
    p.physics_total_energy_j = number_field(*phys, "total_energy_j");
    p.physics_exchange_energy_j = number_field(*phys, "exchange_energy_j");
    p.early_stop_saved_steps = uint_field(*phys, "early_stop_saved_steps");
    const JsonValue* probes = phys->find("probes");
    if (!probes || !probes->is_array()) {
      throw std::runtime_error("RunProfile: missing \"physics.probes\" array");
    }
    for (const JsonValue& entry : probes->array()) {
      if (!entry.is_object()) {
        throw std::runtime_error(
            "RunProfile: physics.probes entry is not an object");
      }
      const JsonValue* name = entry.find("name");
      if (!name || !name->is_string()) {
        throw std::runtime_error(
            "RunProfile: physics.probes entry missing \"name\"");
      }
      p.physics_probes.push_back({name->str(), uint_field(entry, "windows"),
                                  number_field(entry, "amplitude"),
                                  number_field(entry, "phase"),
                                  number_field(entry, "converged_at")});
    }
  }
  p.peak_rss_bytes = uint_field(root, "peak_rss_bytes");
  return p;
}

}  // namespace swsim::obs
