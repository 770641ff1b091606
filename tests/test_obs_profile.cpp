// RunProfile: JSON round-trip fidelity, NaN/inf guards (the dump must stay
// valid JSON no matter what the rates computed to), schema rejection, and
// collect() reading the live registry without registering metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace swsim::obs {
namespace {

RunProfile sample_profile() {
  RunProfile p;
  p.wall_seconds = 2.5;
  p.llg_steps = 120000;
  p.field_evals = 480000;
  p.steps_per_second = 48000.0;
  p.term_share["exchange"] = 0.25;
  p.term_share["demag"] = 0.6;
  p.term_share["zeeman"] = 0.15;
  p.cache_hits = 7;
  p.cache_misses = 3;
  p.cache_hit_rate = 0.7;
  p.pool_threads = 4;
  p.pool_busy_us = 9000000;
  p.pool_utilization = 0.9;
  p.jobs_done = 9;
  p.jobs_failed = 1;
  p.jobs_retried = 2;
  p.peak_rss_bytes = 128 * 1024 * 1024;
  return p;
}

TEST(ObsProfile, JsonRoundTripPreservesEveryField) {
  const RunProfile p = sample_profile();
  const RunProfile q = RunProfile::from_json(parse_json(p.to_json()));

  EXPECT_DOUBLE_EQ(q.wall_seconds, p.wall_seconds);
  EXPECT_EQ(q.llg_steps, p.llg_steps);
  EXPECT_EQ(q.field_evals, p.field_evals);
  EXPECT_DOUBLE_EQ(q.steps_per_second, p.steps_per_second);
  ASSERT_EQ(q.term_share.size(), 3u);
  EXPECT_DOUBLE_EQ(q.term_share.at("exchange"), 0.25);
  EXPECT_DOUBLE_EQ(q.term_share.at("demag"), 0.6);
  EXPECT_DOUBLE_EQ(q.term_share.at("zeeman"), 0.15);
  EXPECT_EQ(q.cache_hits, 7u);
  EXPECT_EQ(q.cache_misses, 3u);
  EXPECT_DOUBLE_EQ(q.cache_hit_rate, 0.7);
  EXPECT_EQ(q.pool_threads, 4u);
  EXPECT_EQ(q.pool_busy_us, 9000000u);
  EXPECT_DOUBLE_EQ(q.pool_utilization, 0.9);
  EXPECT_EQ(q.jobs_done, 9u);
  EXPECT_EQ(q.jobs_failed, 1u);
  EXPECT_EQ(q.jobs_retried, 2u);
  EXPECT_EQ(q.peak_rss_bytes, 128u * 1024 * 1024);
}

TEST(ObsProfile, NonFiniteRatesSerializeAsZeroAndStayValidJson) {
  RunProfile p = sample_profile();
  p.steps_per_second = std::numeric_limits<double>::quiet_NaN();
  p.pool_utilization = -std::numeric_limits<double>::infinity();
  p.term_share["demag"] = std::numeric_limits<double>::quiet_NaN();

  // NaN/inf are not JSON tokens — the writer must clamp, and the result
  // must still parse.
  const std::string doc = p.to_json();
  EXPECT_EQ(doc.find("nan"), std::string::npos);
  EXPECT_EQ(doc.find("inf"), std::string::npos);
  const RunProfile q = RunProfile::from_json(parse_json(doc));
  EXPECT_DOUBLE_EQ(q.steps_per_second, 0.0);
  EXPECT_DOUBLE_EQ(q.pool_utilization, 0.0);
  EXPECT_DOUBLE_EQ(q.term_share.at("demag"), 0.0);
}

TEST(ObsProfile, FromJsonRejectsWrongSchemaAndShape) {
  EXPECT_THROW(RunProfile::from_json(parse_json("[1,2]")), std::runtime_error);
  EXPECT_THROW(RunProfile::from_json(parse_json("{}")), std::runtime_error);
  EXPECT_THROW(
      RunProfile::from_json(parse_json("{\"schema\": \"swsim.profile/999\"}")),
      std::runtime_error);
  // Right schema but a missing section still names the problem.
  try {
    RunProfile::from_json(
        parse_json("{\"schema\": \"swsim.profile/1\", \"wall_seconds\": 1}"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
  }
}

TEST(ObsProfile, CollectReadsRegistryWithoutRegisteringMetrics) {
  MetricsRegistry::arm();
  auto& reg = MetricsRegistry::global();
  reg.reset();
  reg.counter("mag.llg.steps").add(1000);
  reg.counter("mag.term.exchange.us").add(300);
  reg.counter("mag.term.demag.us").add(700);
  reg.counter("cache.hits").add(3);
  reg.counter("cache.misses").add(1);
  reg.gauge("pool.threads").set(2);
  reg.counter("pool.busy_us").add(4000000);

  const std::size_t counters_before = reg.counters_snapshot().size();
  const RunProfile p = RunProfile::collect(/*wall_seconds=*/2.0);
  MetricsRegistry::disarm();

  EXPECT_EQ(p.llg_steps, 1000u);
  EXPECT_DOUBLE_EQ(p.steps_per_second, 500.0);
  ASSERT_EQ(p.term_share.size(), 2u);
  EXPECT_DOUBLE_EQ(p.term_share.at("exchange"), 0.3);
  EXPECT_DOUBLE_EQ(p.term_share.at("demag"), 0.7);
  EXPECT_DOUBLE_EQ(p.cache_hit_rate, 0.75);
  EXPECT_EQ(p.pool_threads, 2u);
  // busy 4 s over 2 threads * 2 s wall = fully utilized.
  EXPECT_DOUBLE_EQ(p.pool_utilization, 1.0);
  EXPECT_GT(p.peak_rss_bytes, 0u);
  // Profiling is a read-only pass: it must not have registered the engine
  // counters it looked for but did not find.
  EXPECT_EQ(reg.counters_snapshot().size(), counters_before);
}

TEST(ObsProfile, ZeroWallGuardsDerivedRates) {
  MetricsRegistry::arm();
  auto& reg = MetricsRegistry::global();
  reg.reset();
  reg.counter("mag.llg.steps").add(1000);
  const RunProfile p = RunProfile::collect(/*wall_seconds=*/0.0);
  MetricsRegistry::disarm();
  EXPECT_DOUBLE_EQ(p.steps_per_second, 0.0);
  EXPECT_DOUBLE_EQ(p.pool_utilization, 0.0);
}

}  // namespace
}  // namespace swsim::obs
