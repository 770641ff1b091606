#include "cli/args.h"

#include <gtest/gtest.h>

namespace swsim::cli {
namespace {

const FlagGroup kShared{"shared", {{"jobs", "n"}, {"stats"}}};

Command entry(std::string_view name, std::string_view usage,
              std::vector<Flag> flags,
              std::vector<const FlagGroup*> groups = {}) {
  return {name, usage, std::move(flags), std::move(groups), "", nullptr};
}

// A small command table in the shape of the real one: own flags, a shared
// group, and a "group sub" entry.
const std::vector<Command>& table() {
  static const std::vector<Command> commands = {
      entry("cmd", "[word...]",
            {{"a"},
                    {"b", "n"},
                    {"x", "v"},
                    {"y", "v"},
                    {"offset", "n"},
                    {"lambda", "nm"},
                    {"verbose"},
                    {"gate", "g"},
                    {"tag", "t"},
                    {"jobs", "n"},
                    {"inject", "spec"}}),
      entry("truthtable", "<gate> [extra]", {{"lambda", "nm"}}, {&kShared}),
      entry("yield", "[gate]", {{"trials", "n"}, {"gate", "g"}}, {&kShared}),
      entry("micromag", "", {{"xor"}, {"cell", "nm"}}),
      entry("batch", "", {{"gate", "g"}, {"trials", "n"}}, {&kShared}),
      entry("probe record", "", {{"out", "csv"}}),
      entry("help", "", {}),
  };
  return commands;
}

Invocation parse_line(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"swsim"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return parse_command_line(table(), static_cast<int>(argv.size()),
                            argv.data());
}

Args parse(std::initializer_list<const char*> tokens) {
  return parse_line(tokens).args;
}

TEST(Args, EmptyCommandLine) {
  // No command names the help entry.
  const Invocation call = parse_line({});
  EXPECT_EQ(call.command->name, "help");
  EXPECT_TRUE(call.args.positional().empty());
  EXPECT_EQ(parse_line({"--help"}).command->name, "help");
}

TEST(Args, CommandAndPositionals) {
  const Args a = parse({"truthtable", "maj", "extra"});
  EXPECT_EQ(a.command(), "truthtable");
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "maj");
  EXPECT_EQ(a.positional()[1], "extra");
  // A "group sub" command consumes both words.
  const Args r = parse({"probe", "record", "--out", "f.csv"});
  EXPECT_EQ(r.command(), "probe record");
  EXPECT_TRUE(r.positional().empty());
  EXPECT_EQ(r.value("out").value(), "f.csv");
}

TEST(Args, KeyValueOptions) {
  const Args a = parse({"yield", "--trials", "200", "--gate", "xor"});
  EXPECT_EQ(a.command(), "yield");
  EXPECT_TRUE(a.has("trials"));
  EXPECT_EQ(a.value("gate").value(), "xor");
  EXPECT_EQ(a.integer("trials", 0), 200);
}

TEST(Args, BareFlags) {
  const Args a = parse({"micromag", "--xor", "--cell", "5"});
  EXPECT_TRUE(a.has("xor"));
  EXPECT_FALSE(a.value("xor").has_value());  // flag, no value
  EXPECT_DOUBLE_EQ(a.number("cell", 0.0), 5.0);
}

TEST(Args, FlagFollowedByFlag) {
  const Args a = parse({"cmd", "--a", "--b", "1"});
  EXPECT_TRUE(a.has("a"));
  EXPECT_FALSE(a.value("a").has_value());
  EXPECT_EQ(a.integer("b", 0), 1);
}

TEST(Args, NumericDefaults) {
  const Args a = parse({"cmd"});
  EXPECT_DOUBLE_EQ(a.number("missing", 3.5), 3.5);
  EXPECT_EQ(a.integer("missing", 7), 7);
}

TEST(Args, NumericValidation) {
  const Args a = parse({"cmd", "--x", "abc", "--y", "1.5z"});
  EXPECT_THROW(a.number("x", 0.0), std::invalid_argument);
  EXPECT_THROW(a.number("y", 0.0), std::invalid_argument);
  EXPECT_THROW(a.integer("x", 0), std::invalid_argument);
}

TEST(Args, NegativeNumbersAsValues) {
  // "-5" does not start with "--", so it parses as a value.
  const Args a = parse({"cmd", "--offset", "-5"});
  EXPECT_EQ(a.integer("offset", 0), -5);
}

TEST(Args, MalformedOptions) {
  EXPECT_THROW(parse({"cmd", "--"}), std::invalid_argument);
}

TEST(Args, RepeatedOptionRejected) {
  // A repeated flag must be an error, not a silent first/last-one-wins.
  EXPECT_THROW(parse({"cmd", "--lambda", "55", "--lambda", "60"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"cmd", "--verbose", "--verbose"}),
               std::invalid_argument);
  // Repeating a *value* that happens to equal a flag name is fine.
  const Args a = parse({"cmd", "--gate", "maj", "--tag", "maj"});
  EXPECT_EQ(a.value("gate").value(), "maj");
  EXPECT_EQ(a.value("tag").value(), "maj");
}

TEST(Args, OptionBeforeCommandMeansNoCommand) {
  // "swsim --jobs 4 truthtable maj" is a usage error, not help.
  EXPECT_THROW(parse({"--verbose", "thing"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs", "4", "truthtable", "maj"}),
               std::invalid_argument);
}

TEST(Args, EqualsSyntaxIsASynonym) {
  const Args a = parse({"batch", "--jobs=4", "--gate=maj"});
  EXPECT_EQ(a.integer("jobs", 0), 4);
  EXPECT_EQ(a.value("gate").value(), "maj");
  // An equals value may itself contain '=' (split at the first one only).
  const Args b = parse({"cmd", "--inject=stall:row 3:0.5"});
  EXPECT_EQ(b.value("inject").value(), "stall:row 3:0.5");
}

TEST(Args, EqualsSyntaxRejectsEmptyValueAndRepeats) {
  EXPECT_THROW(parse({"cmd", "--jobs="}), std::invalid_argument);
  EXPECT_THROW(parse({"cmd", "--jobs=2", "--jobs", "3"}),
               std::invalid_argument);
}

TEST(Args, MalformedNumericFlagIsAUsageError) {
  const Args a = parse({"batch", "--jobs=abc"});
  EXPECT_THROW(a.integer("jobs", 0), std::invalid_argument);
  EXPECT_THROW(a.unsigned_integer("jobs", 0), std::invalid_argument);
}

TEST(Args, UnsignedIntegerRejectsNegativeCounts) {
  const Args a = parse({"batch", "--jobs", "-4", "--trials", "16"});
  try {
    a.unsigned_integer("jobs", 0);
    FAIL() << "negative count accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("non-negative"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-4"), std::string::npos);
  }
  EXPECT_EQ(a.unsigned_integer("trials", 0), 16u);
  EXPECT_EQ(a.unsigned_integer("missing", 9), 9u);  // fallback untouched
}

TEST(Args, BooleanFlagLeavesTheNextWordPositional) {
  // "yield --stats xor": --stats never swallows the gate name.
  const Args a = parse({"yield", "--stats", "xor", "--trials", "20"});
  EXPECT_TRUE(a.has("stats"));
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "xor");
  EXPECT_EQ(a.integer("trials", 0), 20);
}

TEST(Args, ValueFlagAtEndOfLineIsAUsageError) {
  // A trailing "--lambda" must not fall back to the default wavelength.
  EXPECT_THROW(parse({"truthtable", "maj", "--lambda"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"cmd", "--b", "--a"}), std::invalid_argument);
}

TEST(Args, EqualsValueOnBooleanFlagIsAUsageError) {
  EXPECT_THROW(parse({"cmd", "--a=1"}), std::invalid_argument);
  EXPECT_THROW(parse({"truthtable", "maj", "--stats=yes"}),
               std::invalid_argument);
}

TEST(Args, UnknownFlagNamesTheCommandAndTheFlag) {
  try {
    parse({"truthtable", "maj", "--lamda", "60"});
    FAIL() << "typo flag accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("truthtable"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--lamda"), std::string::npos);
  }
  // Shared-group flags are accepted only where the group is.
  EXPECT_NO_THROW(parse({"truthtable", "maj", "--jobs", "2"}));
  EXPECT_THROW(parse({"micromag", "--jobs", "2"}), std::invalid_argument);
  // Parsing against an entry's own flags (a batch job line) leaves the
  // shared group out.
  const std::vector<std::string> words = {"maj", "--jobs", "2"};
  EXPECT_THROW(Args::parse(table()[1], words, /*shared=*/false),
               std::invalid_argument);
}

TEST(Args, PositionalArityComesFromTheUsage) {
  // "<x>" is required, "[x]" optional, "..." repeats; nothing else fits.
  EXPECT_THROW(parse({"truthtable"}), std::invalid_argument);
  EXPECT_THROW(parse({"truthtable", "maj", "xor", "xnor"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"micromag", "maj"}), std::invalid_argument);
  EXPECT_EQ(parse({"cmd", "1", "2", "3", "4"}).positional().size(), 4u);
}

}  // namespace
}  // namespace swsim::cli
