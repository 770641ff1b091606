// The one JSON writer and number formatter: escapes, comma placement,
// raw fragments, dump/parse/dump stability, exact number spellings, and a
// bit-for-bit round trip of format_number through parse_json.
#include "obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace swsim::obs {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double double_of(std::uint64_t b) {
  double v = 0.0;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

TEST(JsonWriter, EscapesEveryControlCharacterQuoteAndBackslash) {
  std::string all;
  for (int c = 0; c < 0x20; ++c) all += static_cast<char>(c);
  all += "\"\\/ plain \x7f";
  const std::string doc = JsonWriter().value(all).take();
  EXPECT_EQ(doc,
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
            "\\b\\t\\n\\u000b\\f\\r\\u000e\\u000f"
            "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
            "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
            "\\\"\\\\/ plain \x7f\"");
  EXPECT_EQ(parse_json(doc).str(), all);
  // Keys go through the same escaper.
  const std::string obj =
      JsonWriter().begin_object().field("k\"\n", 1).end_object().take();
  EXPECT_EQ(obj, "{\"k\\\"\\n\":1}");
  EXPECT_EQ(parse_json(obj).find("k\"\n")->number(), 1.0);
}

TEST(JsonWriter, CommasAcrossNestedAndEmptyContainers) {
  JsonWriter w;
  w.begin_object()
      .key("empty_obj").begin_object().end_object()
      .key("empty_arr").begin_array().end_array()
      .key("nested")
      .begin_array()
      .begin_array().end_array()
      .begin_object().field("a", 1).field("b", "x").end_object()
      .begin_array().value(1).value(2).begin_array().end_array().end_array()
      .null()
      .end_array()
      .field("t", true)
      .field("f", false)
      .end_object();
  EXPECT_EQ(w.str(),
            R"({"empty_obj":{},"empty_arr":[],"nested":[[],{"a":1,"b":"x"},)"
            R"([1,2,[]],null],"t":true,"f":false})");
  EXPECT_NO_THROW(parse_json(w.str()));
  EXPECT_EQ(JsonWriter().begin_array().end_array().take(), "[]");
  EXPECT_EQ(JsonWriter().begin_object().end_object().take(), "{}");
}

TEST(JsonWriter, RawFragmentsAreValuesInTheSequence) {
  JsonWriter w;
  w.begin_object()
      .key("pre").raw(R"({"x":[1,2]})")
      .field("after", 2)
      .key("list")
      .begin_array()
      .raw("1")
      .raw("\"two\"")
      .value(3)
      .end_array()
      .end_object();
  EXPECT_EQ(w.str(), R"({"pre":{"x":[1,2]},"after":2,"list":[1,"two",3]})");
}

TEST(JsonWriter, DumpParseDumpIsStable) {
  const std::string text =
      R"({"z":[1,0.1,-0,1e-300,"s\u0001\"",true,false,null,{}],)"
      R"("a":{"nested":{"k":[[],[{}]]},"big":1.7976931348623157e308}})";
  const std::string once = JsonWriter().value(parse_json(text)).take();
  const std::string twice = JsonWriter().value(parse_json(once)).take();
  EXPECT_EQ(once, twice);
  // Objects come out in key order.
  EXPECT_EQ(once.rfind(R"({"a":)", 0), 0u);
}

TEST(JsonWriter, IntegersPrintExactly) {
  const auto spell = [](auto v) { return JsonWriter().value(v).take(); };
  EXPECT_EQ(spell(std::numeric_limits<std::uint64_t>::max()),
            "18446744073709551615");
  EXPECT_EQ(spell(std::numeric_limits<std::int64_t>::min()),
            "-9223372036854775808");
  EXPECT_EQ(spell(0), "0");
  EXPECT_EQ(spell(-7), "-7");
}

TEST(FormatNumber, ExactSpellings) {
  const std::pair<double, const char*> table[] = {
      {55.0, "55"},
      {0.05, "0.05"},
      {1e-05, "1e-05"},
      {123456789.0, "123456789"},
      {2.5e-07, "2.5e-07"},
      {100.0, "100"},
      {-0.0, "-0"},
      {0.0001, "1e-04"},
      {0.1 + 0.2, "0.30000000000000004"},
      {1760000000123456.0, "1760000000123456"}};
  for (const auto& [v, spelled] : table) {
    EXPECT_EQ(format_number(v), spelled) << spelled;
    EXPECT_EQ(JsonWriter().value(v).take(), spelled) << spelled;
  }
}

TEST(FormatNumber, NonFiniteIsNull) {
  EXPECT_EQ(format_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(format_number(-std::numeric_limits<double>::infinity()), "null");
  const std::string doc = JsonWriter()
                              .begin_array()
                              .value(std::nan(""))
                              .value(1.5)
                              .end_array()
                              .take();
  EXPECT_EQ(doc, "[null,1.5]");
  EXPECT_TRUE(parse_json(doc).array()[0].is_null());
}

TEST(FormatNumber, RoundTripsBitForBitOnASeededCorpus) {
  std::mt19937_64 rng(20201124);
  std::vector<double> corpus = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                9007199254740992.0,    // 2^53
                                -9007199254740991.0};  // -(2^53 - 1)
  for (int i = 0; i < 40000; ++i) {
    // Random bit patterns: every exponent, subnormals, both signs.
    const double v = double_of(rng());
    if (std::isfinite(v)) corpus.push_back(v);
  }
  std::uniform_int_distribution<std::uint64_t> ints(0,
                                                    std::uint64_t{1} << 53);
  std::uniform_int_distribution<std::uint64_t> mantissa(
      0, (std::uint64_t{1} << 52) - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 20000; ++i) {
    corpus.push_back(static_cast<double>(ints(rng)));
    corpus.push_back(-static_cast<double>(ints(rng)));
    // Subnormals: zero exponent, random mantissa.
    corpus.push_back(double_of(mantissa(rng)));
    // Timing-like values: seconds and microseconds as the clocks and the
    // SLO/profile code compute them.
    const double us = static_cast<double>(ints(rng) % 100000000);
    corpus.push_back(us * 1e-6);
    corpus.push_back(unit(rng) * 1e3);
    corpus.push_back(1.76e15 + us + unit(rng));
  }
  std::size_t mismatches = 0;
  for (const double v : corpus) {
    const std::string spelled = format_number(v);
    const double back = parse_json(spelled).number();
    if (bits_of(back) != bits_of(v)) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "bits differ for " << spelled;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << corpus.size();
}

TEST(WriteJsonFile, EndsWithANewlineAndReportsFailures) {
  const std::string path =
      ::testing::TempDir() + "swsim_write_json_file_test.json";
  std::string error;
  ASSERT_TRUE(write_json_file(path, "{\"a\":1}", &error)) << error;
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_EQ(body.str(), "{\"a\":1}\n");
  std::remove(path.c_str());

  EXPECT_FALSE(write_json_file("/nonexistent-dir/x.json", "{}", &error));
  EXPECT_NE(error.find("/nonexistent-dir/x.json"), std::string::npos);
}

}  // namespace
}  // namespace swsim::obs
