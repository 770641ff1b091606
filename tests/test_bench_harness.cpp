// Bench harness: robust statistics, flag stripping, writer->reader JSON
// round trip, and the noise-aware comparison boundary math used by
// `swsim bench diff`/`gate`.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "mag/kernels/sweep.h"
#include "obs/json.h"

namespace swsim::bench {
namespace {

TEST(BenchStats, MedianAndMad) {
  // Odd count: plain middle element.
  const SampleStats odd = compute_stats({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(odd.min, 1.0);
  EXPECT_DOUBLE_EQ(odd.median, 2.0);
  // |1-2|,|2-2|,|3-2| = {1,0,1} -> median deviation 1.
  EXPECT_DOUBLE_EQ(odd.mad, 1.0);

  // Even count: mean of the middle pair, for median and MAD alike.
  const SampleStats even = compute_stats({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(even.median, 2.5);
  // deviations {1.5, 0.5, 0.5, 1.5} -> middle pair (0.5, 1.5) -> 1.0.
  EXPECT_DOUBLE_EQ(even.mad, 1.0);

  const SampleStats one = compute_stats({7.0});
  EXPECT_DOUBLE_EQ(one.min, 7.0);
  EXPECT_DOUBLE_EQ(one.median, 7.0);
  EXPECT_DOUBLE_EQ(one.mad, 0.0);

  const SampleStats none = compute_stats({});
  EXPECT_DOUBLE_EQ(none.median, 0.0);
  EXPECT_DOUBLE_EQ(none.mad, 0.0);
}

TEST(BenchHarness, StripsOwnFlagsAndLeavesTheRest) {
  std::vector<std::string> storage = {"prog",    "--quick",   "--repeats",
                                      "7",       "--foreign", "--warmup",
                                      "2",       "--out-dir", "/tmp",
                                      "positional"};
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(storage.size());

  Harness h("strip_test", &argc, argv.data());
  EXPECT_TRUE(h.quick());
  EXPECT_EQ(h.repeats(), 7);  // explicit value wins over the quick default
  EXPECT_EQ(h.warmup(), 2);
  EXPECT_EQ(h.out_dir(), "/tmp");
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "--foreign");
  EXPECT_STREQ(argv[2], "positional");
  EXPECT_EQ(argv[3], nullptr);
}

TEST(BenchHarness, QuickLowersDefaultRepeats) {
  std::vector<std::string> storage = {"prog", "--quick"};
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(storage.size());
  Harness h("quick_test", &argc, argv.data());
  EXPECT_TRUE(h.quick());
  EXPECT_EQ(h.repeats(), 3);
}

TEST(BenchHarness, MalformedFlagValueThrows) {
  auto make = [](std::vector<std::string> storage) {
    std::vector<char*> argv;
    for (auto& s : storage) argv.push_back(s.data());
    argv.push_back(nullptr);
    int argc = static_cast<int>(storage.size());
    Harness h("bad_flags", &argc, argv.data());
  };
  EXPECT_THROW(make({"prog", "--repeats", "abc"}), std::invalid_argument);
  EXPECT_THROW(make({"prog", "--repeats"}), std::invalid_argument);
  EXPECT_THROW(make({"prog", "--warmup", "-1"}), std::invalid_argument);
}

TEST(BenchHarness, WriterJsonRoundTripsThroughReader) {
  std::vector<std::string> storage = {"prog", "--repeats", "2", "--warmup",
                                      "0"};
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(storage.size());
  Harness h("roundtrip", &argc, argv.data());

  int calls = 0;
  h.time_case("spin", [&] { ++calls; }, /*items_per_iter=*/10.0);
  EXPECT_EQ(calls, 2);  // warmup 0 + 2 timed repeats
  h.record_samples("oneshot", "s", {1.5}, /*items_per_second=*/8.0 / 1.5);
  h.add_scalar("figure_of_merit", 42.5);

  const BenchDoc doc = parse_bench_json(obs::parse_json(h.to_json()));
  EXPECT_EQ(doc.name, "roundtrip");
  EXPECT_FALSE(doc.quick);
  EXPECT_FALSE(doc.env.compiler.empty());
  EXPECT_GT(doc.env.cores, 0u);
  EXPECT_EQ(doc.env.kernel_isa, mag::kernels::sweep_variant().name);
  ASSERT_EQ(doc.cases.size(), 2u);
  ASSERT_TRUE(doc.cases.count("spin"));
  EXPECT_EQ(doc.cases.at("spin").unit, "s");
  ASSERT_TRUE(doc.cases.count("oneshot"));
  EXPECT_DOUBLE_EQ(doc.cases.at("oneshot").median, 1.5);
  EXPECT_DOUBLE_EQ(doc.cases.at("oneshot").mad, 0.0);
  ASSERT_TRUE(doc.scalars.count("figure_of_merit"));
  EXPECT_DOUBLE_EQ(doc.scalars.at("figure_of_merit"), 42.5);
}

TEST(BenchReader, RejectsWrongSchemaOrShape) {
  EXPECT_THROW(parse_bench_json(obs::parse_json("{\"schema\": \"nope/1\"}")),
               std::runtime_error);
  EXPECT_THROW(parse_bench_json(obs::parse_json("42")), std::runtime_error);
  EXPECT_THROW(
      parse_bench_json(obs::parse_json(
          "{\"schema\": \"swsim.bench/1\", \"name\": \"x\"}")),
      std::runtime_error);
}

TEST(BenchReader, EnvWithoutKernelIsaStillParses) {
  // Files written before the kernel variant was recorded.
  const BenchDoc doc = parse_bench_json(obs::parse_json(
      R"({"schema": "swsim.bench/1", "name": "old", "quick": false,
          "env": {"git_sha": "abc", "compiler": "GNU 12.2.0",
                  "flags": "-O3", "build_type": "Release", "cores": 4},
          "cases": {}, "scalars": {}})"));
  EXPECT_EQ(doc.env.cores, 4u);
  EXPECT_TRUE(doc.env.kernel_isa.empty());
}

// --- comparison boundary math -------------------------------------------

BenchDoc doc_with_case(const std::string& name, double median, double mad) {
  BenchDoc d;
  d.name = "t";
  CaseStats c;
  c.unit = "s";
  c.min = median;
  c.median = median;
  c.mad = mad;
  d.cases[name] = c;
  return d;
}

TEST(BenchCompare, RegressionMustClearRelativeAndNoiseFloor) {
  // Binary-exact values so the boundary comparison is deterministic:
  // base median 1.0, mad 2^-6 on both sides ->
  // threshold = max(0.05 * 1.0, 3 * (0.015625 + 0.015625)) = 0.09375.
  const BenchDoc base = doc_with_case("solve", 1.0, 0.015625);

  // Exactly on the threshold: NOT a regression (strict inequality).
  auto r = compare_benches(base, doc_with_case("solve", 1.09375, 0.015625));
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0].verdict, Verdict::kOk);
  EXPECT_NEAR(r.deltas[0].threshold, 0.09375, 1e-12);
  EXPECT_EQ(r.regressions, 0);

  // Just past it: regression.
  r = compare_benches(base, doc_with_case("solve", 1.094, 0.015625));
  EXPECT_EQ(r.deltas[0].verdict, Verdict::kRegression);
  EXPECT_EQ(r.regressions, 1);

  // Symmetric improvement side.
  r = compare_benches(base, doc_with_case("solve", 0.906, 0.015625));
  EXPECT_EQ(r.deltas[0].verdict, Verdict::kImprovement);
  EXPECT_EQ(r.improvements, 1);
  r = compare_benches(base, doc_with_case("solve", 0.90625, 0.015625));
  EXPECT_EQ(r.deltas[0].verdict, Verdict::kOk);
}

TEST(BenchCompare, NoisyCasesNeedMoreThanTheRelativeFloor) {
  // Large MADs push the threshold above the 5% floor:
  // threshold = max(0.05, 3 * (0.1 + 0.1)) = 0.6 — a 40% slowdown is
  // still within the noise here.
  const BenchDoc base = doc_with_case("solve", 1.0, 0.1);
  const auto r = compare_benches(base, doc_with_case("solve", 1.4, 0.1));
  EXPECT_EQ(r.deltas[0].verdict, Verdict::kOk);
}

TEST(BenchCompare, SingleSampleCasesFallBackToRelativeTolerance) {
  // mad 0 on both sides (one-shot heavy benches): threshold is the pure
  // relative floor.
  const BenchDoc base = doc_with_case("llg", 10.0, 0.0);
  auto r = compare_benches(base, doc_with_case("llg", 10.49, 0.0));
  EXPECT_EQ(r.deltas[0].verdict, Verdict::kOk);
  r = compare_benches(base, doc_with_case("llg", 10.51, 0.0));
  EXPECT_EQ(r.deltas[0].verdict, Verdict::kRegression);
}

TEST(BenchCompare, NewAndMissingCasesAreNeverRegressions) {
  BenchDoc base = doc_with_case("kept", 1.0, 0.0);
  base.cases["dropped"] = base.cases["kept"];
  BenchDoc cur = doc_with_case("kept", 1.0, 0.0);
  cur.cases["added"] = cur.cases["kept"];

  const auto r = compare_benches(base, cur);
  ASSERT_EQ(r.deltas.size(), 3u);
  // Deltas come back name-sorted.
  EXPECT_EQ(r.deltas[0].name, "added");
  EXPECT_EQ(r.deltas[0].verdict, Verdict::kNew);
  EXPECT_EQ(r.deltas[1].name, "dropped");
  EXPECT_EQ(r.deltas[1].verdict, Verdict::kMissing);
  EXPECT_EQ(r.deltas[2].name, "kept");
  EXPECT_EQ(r.deltas[2].verdict, Verdict::kOk);
  EXPECT_EQ(r.regressions, 0);
  EXPECT_EQ(r.improvements, 0);
}

TEST(BenchCompare, CustomOptionsChangeTheThreshold) {
  const BenchDoc base = doc_with_case("solve", 1.0, 0.0);
  CompareOptions opts;
  opts.rel_tolerance = 0.5;
  opts.mad_k = 0.0;
  // 30% slower passes under a 50% tolerance...
  auto r = compare_benches(base, doc_with_case("solve", 1.3, 0.0), opts);
  EXPECT_EQ(r.deltas[0].verdict, Verdict::kOk);
  // ...while a tightened tolerance flags it.
  opts.rel_tolerance = 0.1;
  r = compare_benches(base, doc_with_case("solve", 1.3, 0.0), opts);
  EXPECT_EQ(r.deltas[0].verdict, Verdict::kRegression);
}

TEST(BenchRegistry, NamesAreUniqueAndNonEmpty) {
  const auto& reg = bench_registry();
  EXPECT_EQ(reg.size(), 12u);
  for (std::size_t i = 0; i < reg.size(); ++i) {
    EXPECT_NE(std::string(reg[i].name), "");
    for (std::size_t j = i + 1; j < reg.size(); ++j) {
      EXPECT_NE(std::string(reg[i].name), std::string(reg[j].name));
    }
  }
}

}  // namespace
}  // namespace swsim::bench
