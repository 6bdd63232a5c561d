#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace micco {
namespace {

CliArgs parse(std::initializer_list<const char*> args,
             std::initializer_list<std::string_view> switches = {}) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data(), switches);
}

TEST(CliArgs, EqualsForm) {
  const CliArgs args = parse({"--gpus=8"});
  EXPECT_EQ(args.get_int("gpus", 0), 8);
}

TEST(CliArgs, SpaceSeparatedForm) {
  const CliArgs args = parse({"--gpus", "4"});
  EXPECT_EQ(args.get_int("gpus", 0), 4);
}

TEST(CliArgs, BareFlagIsBooleanTrue) {
  const CliArgs args = parse({"--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_TRUE(args.has("verbose"));
}

TEST(CliArgs, MissingFlagFallsBack) {
  const CliArgs args = parse({});
  EXPECT_EQ(args.get("name", "default"), "default");
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_FALSE(args.has("name"));
}

TEST(CliArgs, BooleanSpellings) {
  EXPECT_TRUE(parse({"--a=true"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=on"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=yes"}).get_bool("a", false));
  EXPECT_FALSE(parse({"--a=false"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=off"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=0"}).get_bool("a", true));
}

TEST(CliArgs, UnknownBooleanSpellingFallsBack) {
  EXPECT_TRUE(parse({"--a=banana"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=banana"}).get_bool("a", false));
}

TEST(CliArgs, DoubleParsing) {
  const CliArgs args = parse({"--rate=0.75"});
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.75);
}

TEST(CliArgs, PositionalArguments) {
  const CliArgs args = parse({"file1", "--flag=1", "file2"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "file1");
  EXPECT_EQ(args.positional()[1], "file2");
}

TEST(CliArgs, LastOccurrenceWins) {
  const CliArgs args = parse({"--n=1", "--n=2"});
  EXPECT_EQ(args.get_int("n", 0), 2);
}

TEST(CliArgs, UnusedFlagsReported) {
  const CliArgs args = parse({"--used=1", "--typo=2"});
  (void)args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(CliArgs, WarnUnusedNamesEachUnreadFlagOnStderr) {
  const CliArgs args =
      parse({"--evict-polcy=lru", "--gpus=4", "--sched-incremental=off"});
  (void)args.get_int("gpus", 8);
  ::testing::internal::CaptureStderr();
  const std::size_t reported = warn_unused(args);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(reported, 2u);
  EXPECT_EQ(err,
            "warning: unrecognised flag --evict-polcy ignored\n"
            "warning: unrecognised flag --sched-incremental ignored\n");

  // Every flag read: nothing to report, nothing printed.
  (void)args.get("evict-polcy", "");
  (void)args.get_bool("sched-incremental", true);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(warn_unused(args), 0u);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(CliArgs, EmptyFlagNameIsError) {
  const CliArgs args = parse({"--=x"});
  EXPECT_TRUE(args.error().has_value());
}

TEST(CliArgs, WholeValueNumbersParse) {
  EXPECT_EQ(parse({"--n=-3"}).get_int("n", 0), -3);
  EXPECT_DOUBLE_EQ(parse({"--x=1e-4"}).get_double("x", 0.0), 1e-4);
  EXPECT_DOUBLE_EQ(parse({"--x", "2"}).get_double("x", 0.0), 2.0);
}

TEST(CliArgsDeathTest, MalformedIntegerExitsNamingTheFlag) {
  EXPECT_EXIT((void)parse({"--gpus=abc"}).get_int("gpus", 8),
              ::testing::ExitedWithCode(2),
              "--gpus expects an integer, got 'abc'");
  EXPECT_EXIT((void)parse({"--gpus=4x"}).get_int("gpus", 8),
              ::testing::ExitedWithCode(2),
              "--gpus expects an integer, got '4x'");
  EXPECT_EXIT((void)parse({"--gpus="}).get_int("gpus", 8),
              ::testing::ExitedWithCode(2),
              "--gpus expects an integer, got ''");
}

TEST(CliArgsDeathTest, MalformedDoubleExitsNamingTheFlag) {
  EXPECT_EXIT((void)parse({"--oversub=x2"}).get_double("oversub", 0.0),
              ::testing::ExitedWithCode(2),
              "--oversub expects a number, got 'x2'");
  EXPECT_EXIT((void)parse({"--oversub=4x"}).get_double("oversub", 0.0),
              ::testing::ExitedWithCode(2),
              "--oversub expects a number, got '4x'");
  EXPECT_EXIT((void)parse({"--oversub="}).get_double("oversub", 0.0),
              ::testing::ExitedWithCode(2),
              "--oversub expects a number, got ''");
}

TEST(CliArgs, SwitchLeavesFollowingFilePositional) {
  const CliArgs args = parse({"report", "--pretty", "w.mw"}, {"pretty"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[1], "w.mw");
  EXPECT_TRUE(args.get_bool("pretty", false));
  // A switch still takes an explicit `=value`.
  EXPECT_FALSE(parse({"--pretty=off"}, {"pretty"}).get_bool("pretty", true));
}

TEST(CliArgs, UndeclaredSwitchAcceptsBooleanToken) {
  const CliArgs args = parse({"--quick", "0"});
  EXPECT_FALSE(args.get_bool("quick", true));
}

TEST(CliArgsDeathTest, BooleanNeverSwallowsAFileName) {
  EXPECT_EXIT((void)parse({"--pretty", "w.mw"}).get_bool("pretty", false),
              ::testing::ExitedWithCode(2), "--pretty takes no value");
}

TEST(CliArgs, ProgramName) {
  const CliArgs args = parse({});
  EXPECT_EQ(args.program(), "prog");
}

}  // namespace
}  // namespace micco
