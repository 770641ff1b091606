// Metrics: bucket boundary ("le") semantics, quantile interpolation,
// armed/disarmed gating, registry identity, the JSON export shape, and
// the whole-microsecond count the "*.us" timers add.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace swsim::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::arm(); }
  void TearDown() override { MetricsRegistry::disarm(); }
};

TEST_F(MetricsTest, CounterAndGaugeTallyWhenArmed) {
  Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
}

TEST_F(MetricsTest, DisarmedRecordsAreDropped) {
  MetricsRegistry::disarm();
  Counter c;
  c.add(100);
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.set(5);
  EXPECT_EQ(g.value(), 0);

  Histogram h({1.0});
  h.observe(0.5);
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST_F(MetricsTest, HistogramBoundaryValuesAreInclusive) {
  // "le" semantics: a value exactly on a bound lands in that bound's
  // bucket, not the next one.
  Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);  // bucket 0
  h.observe(1.0);  // bucket 0 (boundary inclusive)
  h.observe(1.5);  // bucket 1
  h.observe(2.0);  // bucket 1 (boundary inclusive)
  h.observe(5.0);  // bucket 2 (last finite boundary)
  h.observe(7.0);  // overflow

  const auto s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, 17.0);
  EXPECT_DOUBLE_EQ(s.mean(), 17.0 / 6.0);
}

TEST_F(MetricsTest, QuantileInterpolatesWithinBucket) {
  Histogram h({1.0, 2.0, 5.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 5.0, 7.0}) h.observe(v);
  const auto s = h.snapshot();
  // rank 3 of 6 falls in the (1, 2] bucket at within-fraction 0.5.
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 1.5);
  // The overflow bucket has no upper bound to interpolate toward; it
  // reports the last finite bound.
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
  // Empty histogram: quantile is defined (0), not a crash.
  EXPECT_DOUBLE_EQ(Histogram({1.0}).snapshot().quantile(0.9), 0.0);
}

TEST_F(MetricsTest, HistogramRejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST_F(MetricsTest, RegistryGetOrCreateReturnsStableObjects) {
  auto& reg = MetricsRegistry::global();
  Counter& a = reg.counter("test.obs_metrics.counter");
  Counter& b = reg.counter("test.obs_metrics.counter");
  EXPECT_EQ(&a, &b);

  // Bounds apply only on first creation; later callers get the original.
  Histogram& h1 = reg.histogram("test.obs_metrics.hist", {1.0, 2.0});
  Histogram& h2 = reg.histogram("test.obs_metrics.hist", {99.0});
  EXPECT_EQ(&h1, &h2);
  ASSERT_EQ(h2.bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(h2.bounds()[1], 2.0);
}

TEST_F(MetricsTest, ConcurrentCounterAddsDoNotLoseIncrements) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kAdds = 10000;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&c] {
      for (int n = 0; n < kAdds; ++n) c.add();
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST_F(MetricsTest, JsonExportRoundTrips) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test.obs_metrics.json_counter").add(3);
  reg.gauge("test.obs_metrics.json_gauge").set(-2);
  Histogram& h = reg.histogram("test.obs_metrics.json_hist", {1.0, 2.0});
  h.reset();
  h.observe(0.5);
  h.observe(9.0);

  const JsonValue root = parse_json(reg.json());
  const auto* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* c = counters->find("test.obs_metrics.json_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->number(), 3.0);

  const auto* g = root.find("gauges")->find("test.obs_metrics.json_gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->number(), -2.0);

  const auto* hist =
      root.find("histograms")->find("test.obs_metrics.json_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->number(), 2.0);
  EXPECT_DOUBLE_EQ(hist->find("sum")->number(), 9.5);
  const auto& buckets = hist->find("buckets")->array();
  ASSERT_EQ(buckets.size(), 3u);  // two finite bounds + overflow
  EXPECT_DOUBLE_EQ(buckets[0].array()[0].number(), 1.0);
  EXPECT_DOUBLE_EQ(buckets[0].array()[1].number(), 1.0);
  // The overflow bucket's "le" is the string "inf", not a number.
  EXPECT_EQ(buckets[2].array()[0].str(), "inf");
  EXPECT_DOUBLE_EQ(buckets[2].array()[1].number(), 1.0);
}

TEST_F(MetricsTest, NonFiniteSumDumpsAsNull) {
  // JSON has no NaN or Inf: a histogram that saw them must still dump a
  // parseable document, with the poisoned sum written as null. The cli
  // ctest cli_stats_null_sum feeds these exact bytes to `swsim stats`.
  auto& reg = MetricsRegistry::global();
  Histogram& h = reg.histogram("test.obs_metrics.nonfinite", {1.0});
  h.reset();
  h.observe(std::numeric_limits<double>::infinity());
  h.observe(std::numeric_limits<double>::quiet_NaN());

  const std::string dump = reg.json();
  EXPECT_NE(dump.find(R"("test.obs_metrics.nonfinite":{"count":2,"sum":null,)"
                      R"("buckets":[[1,1],["inf",1]]})"),
            std::string::npos)
      << dump;
  const JsonValue root = parse_json(dump);
  const auto* hist =
      root.find("histograms")->find("test.obs_metrics.nonfinite");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->number(), 2.0);
  EXPECT_TRUE(hist->find("sum")->is_null());
}

TEST_F(MetricsTest, SnapshotsAreLexicographicallySorted) {
  auto& reg = MetricsRegistry::global();
  reg.reset();
  // Registered deliberately out of order; the dump must not depend on
  // registration (or hash-bucket) order.
  reg.counter("test.sort.zebra").add(1);
  reg.counter("test.sort.alpha").add(2);
  reg.counter("test.sort.middle").add(3);
  reg.gauge("test.sort.g2").set(2);
  reg.gauge("test.sort.g1").set(1);

  const auto counters = reg.counters_snapshot();
  for (std::size_t i = 1; i < counters.size(); ++i) {
    EXPECT_LT(counters[i - 1].first, counters[i].first);
  }
  const auto gauges = reg.gauges_snapshot();
  for (std::size_t i = 1; i < gauges.size(); ++i) {
    EXPECT_LT(gauges[i - 1].first, gauges[i].first);
  }
}

TEST_F(MetricsTest, JsonDumpIsByteStableAndSorted) {
  auto& reg = MetricsRegistry::global();
  reg.reset();
  // First creation order is deliberately non-lexicographic; the storage is
  // an unordered_map, so only the sort-at-snapshot contract keeps the dump
  // deterministic.
  reg.counter("test.stable.b").add(2);
  reg.counter("test.stable.a").add(1);
  reg.gauge("test.stable.g").set(7);
  const std::string first = reg.json();

  // Same state, dumped again: byte-identical, so baselines diff cleanly.
  EXPECT_EQ(reg.json(), first);
  // And within the dump, the keys appear in sorted order despite the
  // creation order above.
  const auto pos_a = first.find("test.stable.a");
  const auto pos_b = first.find("test.stable.b");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
}

TEST(ElapsedUs, CountsMicrosecondBoundariesCrossed) {
  EXPECT_EQ(elapsed_us(10.0, 10.0), 0u);
  EXPECT_EQ(elapsed_us(10.1, 10.9), 0u);
  EXPECT_EQ(elapsed_us(10.9, 11.1), 1u);  // truncation would read 0
  EXPECT_EQ(elapsed_us(10.0, 12.0), 2u);
  EXPECT_EQ(elapsed_us(10.5, 12.25), 2u);
  EXPECT_EQ(elapsed_us(1e9 + 0.75, 1e9 + 3.5), 3u);
}

TEST(ElapsedUs, IsUnbiasedOverAUniformStartPhase) {
  // A span of d us, started at 1000 evenly spaced phases of a
  // microsecond, must average d; truncating the difference averages
  // floor(d) instead (0 for the sub-microsecond spans).
  for (const double d : {0.3, 0.5, 1.25, 18.6}) {
    const int n = 1000;
    double sum = 0.0;
    for (int k = 0; k < n; ++k) {
      const double start = 5000.0 + (k + 0.5) / n;
      sum += static_cast<double>(elapsed_us(start, start + d));
    }
    EXPECT_NEAR(sum / n, d, 2.0 / n) << "span " << d << " us";
  }
}

}  // namespace
}  // namespace swsim::obs
