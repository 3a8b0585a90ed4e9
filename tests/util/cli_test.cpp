#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace billcap::util {
namespace {

using enum FlagKind;

constexpr Flag kTable[] = {
    {"budget", kNumber, "monthly budget", "1.5e6", kPositive},
    {"policy", kInteger, "policy level", "1", {0.0, 3.0, false, "0..3"}},
    {"seed", kInteger, "seed", "2012"},
    {"delta", kNumber, "signed offset", "0"},
    {"p", kNumber, "a probability", "0.5", kProbability},
    {"n", kInteger, "a count", "1", kAtLeastOne},
    {"scale", kNumber, "unset = none", "", kPositive},
    {"budgets", kNumberList, "budgets", "1,2", kPositive},
    {"name", kText, "a name", "fallback"},
    {"csv", kText, "a path"},
    {"verbose", kSwitch, "talk more"},
    {"quiet", kSwitch, "talk less"},
};

/// Parses `tokens` as they follow the command word.
CliArgs parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv = {"cmd"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return CliArgs(kTable, static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgsTest, CommandAndPositionals) {
  // argv[0] (the program or command word) is skipped; any later token that
  // is not a flag or a flag's value is a stray positional.
  EXPECT_FALSE(parse({}).has("budget"));
  EXPECT_THROW(parse({"extra1"}), UsageError);
  EXPECT_THROW(parse({"--budget", "5", "extra"}), UsageError);
  EXPECT_THROW(parse({"-x"}), UsageError);
}

TEST(CliArgsTest, FlagWithSeparateValue) {
  const CliArgs args = parse({"--budget", "1.5e6"});
  EXPECT_TRUE(args.has("budget"));
  EXPECT_DOUBLE_EQ(args.get_number("budget"), 1.5e6);
}

TEST(CliArgsTest, FlagWithEqualsValue) {
  const CliArgs args = parse({"--policy=3", "--name=a=b", "--csv="});
  EXPECT_EQ(args.get_integer("policy"), 3);
  EXPECT_EQ(args.get_text("name"), "a=b");
  EXPECT_TRUE(args.has("csv"));
  EXPECT_EQ(args.get_text("csv"), "");
}

TEST(CliArgsTest, BareSwitch) {
  const CliArgs args = parse({"--verbose", "--budget", "5"});
  EXPECT_TRUE(args.get_switch("verbose"));
  EXPECT_FALSE(args.get_switch("quiet"));
  EXPECT_DOUBLE_EQ(args.get_number("budget"), 5.0);
  // A switch never consumes the next token, and takes no =value.
  EXPECT_THROW(parse({"--verbose", "5"}), UsageError);
  EXPECT_THROW(parse({"--verbose=true"}), UsageError);
}

TEST(CliArgsTest, DefaultsWhenAbsent) {
  const CliArgs args = parse({});
  EXPECT_EQ(args.get_text("name"), "fallback");
  EXPECT_EQ(args.get_text("csv"), "");
  EXPECT_DOUBLE_EQ(args.get_number("budget"), 1.5e6);
  EXPECT_EQ(args.get_integer("seed"), 2012);
  EXPECT_FALSE(args.has("scale"));
  // An unset flag without a default must be guarded with has().
  EXPECT_THROW(args.get_number("scale"), std::logic_error);
}

TEST(CliArgsTest, TypeErrorsThrow) {
  // Values are converted while parsing, before any getter runs.
  EXPECT_THROW(parse({"--budget", "abc"}), UsageError);
  EXPECT_THROW(parse({"--seed", "abc"}), UsageError);
  EXPECT_THROW(parse({"--seed", "2.5"}), UsageError);
  EXPECT_THROW(parse({"--seed", ""}), UsageError);
  // Out of long's range is an error, not a silent clamp to LONG_MAX.
  EXPECT_THROW(parse({"--seed", "99999999999999999999999"}), UsageError);
  EXPECT_THROW(parse({"--delta", "1e999"}), UsageError);
  // A valued flag at the end, or followed by another flag, has no value.
  EXPECT_THROW(parse({"--budget"}), UsageError);
  EXPECT_THROW(parse({"--budget", "--verbose"}), UsageError);
}

TEST(CliArgsTest, DoubleList) {
  const CliArgs args = parse({"--budgets", "0.5e6,1e6,,2.5e6"});
  const auto list = args.get_number_list("budgets");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[0], 0.5e6);
  EXPECT_DOUBLE_EQ(list[2], 2.5e6);
  EXPECT_EQ(parse({}).get_number_list("budgets"),
            (std::vector<double>{1.0, 2.0}));
}

TEST(CliArgsTest, DoubleListErrors) {
  EXPECT_THROW(parse({"--budgets", "1,zz"}), UsageError);
  EXPECT_THROW(parse({"--budgets", ","}), UsageError);
  // The row's range applies to every item.
  EXPECT_THROW(parse({"--budgets", "1e6,-1"}), UsageError);
}

TEST(CliArgsTest, NegativeNumbersAreValuesNotFlags) {
  const CliArgs args = parse({"--delta", "-3.5"});
  EXPECT_DOUBLE_EQ(args.get_number("delta"), -3.5);
}

TEST(CliArgsTest, EmptyArgv) {
  const CliArgs args(kTable, 0, nullptr);
  EXPECT_FALSE(args.help());
  EXPECT_FALSE(args.has("budget"));
  EXPECT_EQ(args.get_integer("policy"), 1);
}

TEST(CliArgsTest, GetProbAcceptsRangeAndFallsBack) {
  EXPECT_DOUBLE_EQ(parse({"--p", "0.25"}).get_number("p"), 0.25);
  EXPECT_DOUBLE_EQ(parse({}).get_number("p"), 0.5);
  EXPECT_DOUBLE_EQ(parse({"--p", "0"}).get_number("p"), 0.0);
  EXPECT_DOUBLE_EQ(parse({"--p", "1"}).get_number("p"), 1.0);
}

TEST(CliArgsTest, GetProbRejectsOutOfRangeNanAndGarbage) {
  EXPECT_THROW(parse({"--p", "-0.1"}), UsageError);
  EXPECT_THROW(parse({"--p", "1.5"}), UsageError);
  EXPECT_THROW(parse({"--p", "nan"}), UsageError);
  EXPECT_THROW(parse({"--p", "abc"}), UsageError);
}

TEST(CliArgsTest, GetPositiveDoubleRejectsNonPositiveAndNonFinite) {
  EXPECT_DOUBLE_EQ(parse({"--scale", "250.5"}).get_number("scale"),
                   250.5);
  for (const char* bad : {"0", "-3", "inf", "nan"})
    EXPECT_THROW(parse({"--scale", bad}), UsageError) << bad;
}

TEST(CliArgsTest, GetPositiveLongRejectsZeroAndNegative) {
  EXPECT_EQ(parse({"--n", "4"}).get_integer("n"), 4);
  for (const char* bad : {"0", "-2", "2.5"})
    EXPECT_THROW(parse({"--n", bad}), UsageError) << bad;
  EXPECT_EQ(parse({"--policy", "0"}).get_integer("policy"), 0);
  EXPECT_THROW(parse({"--policy", "4"}), UsageError);
}

TEST(CliArgsTest, UsageErrorIsDistinguishableFromRuntimeError) {
  // main() maps UsageError to exit code 2 and other exceptions to 1, so
  // the parser must throw the distinct type.
  try {
    parse({"--p", "2"});
    FAIL() << "expected UsageError";
  } catch (const UsageError&) {
  } catch (const std::exception&) {
    FAIL() << "wrong exception type";
  }
}

TEST(CliArgsTest, UnknownFlagNamesTheNearestDeclaredOne) {
  try {
    parse({"--bugdet", "5"});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--bugdet"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("nearest: --budget"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse({"--budget=5", "--budget", "6"}), UsageError);
}

TEST(CliArgsTest, UndeclaredOrMistypedReadIsAProgrammingError) {
  const CliArgs args = parse({});
  EXPECT_THROW(args.has("bugdet"), std::logic_error);
  EXPECT_THROW(args.get_switch("bugdet"), std::logic_error);
  EXPECT_THROW(args.get_text("budget"), std::logic_error);
  EXPECT_THROW(args.get_integer("budget"), std::logic_error);
  // A table bug — a default its own row rejects, a name declared twice —
  // fails every parse, not just the runs that omit the flag.
  const Flag bad_default[] = {{"n", kInteger, "count", "0", kAtLeastOne}};
  EXPECT_THROW(CliArgs(bad_default, 0, nullptr), std::logic_error);
  EXPECT_THROW(join({kTable, kTable}), std::logic_error);
}

TEST(CliArgsTest, HelpSkipsValidationAndListsEveryRow) {
  const CliArgs args = parse({"--bugdet", "x", "--help"});
  EXPECT_TRUE(args.help());
  const std::string text = help_text(kTable);
  for (const Flag& flag : kTable)
    EXPECT_NE(text.find("--" + std::string(flag.name)), std::string::npos)
        << flag.name;
  EXPECT_NE(text.find("default 1.5e6"), std::string::npos) << text;
}

TEST(CliArgsTest, TokensForRoundTripTheGivenRows) {
  const CliArgs args =
      parse({"--verbose", "--delta", "-2", "--name", "a b", "--seed", "7"});
  const Flag forwarded[] = {kTable[2], kTable[3], kTable[8], kTable[10]};
  const std::vector<std::string> tokens = args.tokens_for(forwarded);
  EXPECT_EQ(tokens, (std::vector<std::string>{"--verbose", "--delta=-2",
                                              "--name=a b", "--seed=7"}));
  std::vector<const char*> argv = {"child"};
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  const CliArgs child(forwarded, static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(child.get_switch("verbose"));
  EXPECT_DOUBLE_EQ(child.get_number("delta"), -2.0);
  EXPECT_EQ(child.get_text("name"), "a b");
  EXPECT_EQ(child.get_integer("seed"), 7);
  EXPECT_TRUE(args.tokens_for({}).empty());
}

}  // namespace
}  // namespace billcap::util
