// Unit tests for the FlagParser used by the demo drivers.

#include <gtest/gtest.h>

#include "common/flags.h"

namespace flinkless {
namespace {

std::vector<const char*> Argv(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args);
  return argv;
}

TEST(FlagsTest, DefaultsSurviveEmptyParse) {
  FlagParser flags;
  int64_t* n = flags.Int64("n", 7, "");
  double* d = flags.Double("d", 0.5, "");
  std::string* s = flags.String("s", "x", "");
  bool* b = flags.Bool("b", false, "");
  auto argv = Argv({});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(*n, 7);
  EXPECT_DOUBLE_EQ(*d, 0.5);
  EXPECT_EQ(*s, "x");
  EXPECT_FALSE(*b);
}

TEST(FlagsTest, ParsesEveryKind) {
  FlagParser flags;
  int64_t* n = flags.Int64("n", 0, "");
  double* d = flags.Double("d", 0, "");
  std::string* s = flags.String("s", "", "");
  bool* b = flags.Bool("b", false, "");
  auto argv = Argv({"--n=-42", "--d=2.5", "--s=hello world", "--b"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(*n, -42);
  EXPECT_DOUBLE_EQ(*d, 2.5);
  EXPECT_EQ(*s, "hello world");
  EXPECT_TRUE(*b);
}

TEST(FlagsTest, BoolExplicitValues) {
  FlagParser flags;
  bool* a = flags.Bool("a", false, "");
  bool* b = flags.Bool("b", true, "");
  auto argv = Argv({"--a=true", "--b=false"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(*a);
  EXPECT_FALSE(*b);
  auto argv2 = Argv({"--a=1", "--b=0"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv2.size()), argv2.data()).ok());
  EXPECT_TRUE(*a);
  EXPECT_FALSE(*b);
}

TEST(FlagsTest, RejectsUnknownFlag) {
  FlagParser flags;
  flags.Int64("n", 0, "");
  auto argv = Argv({"--mystery=1"});
  Status s = flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("mystery"), std::string::npos);
  // The caller prints the usage block; the status must not carry a copy.
  EXPECT_EQ(s.message().find("--n"), std::string::npos);
}

TEST(FlagsTest, HelpIsAcceptedAndReported) {
  FlagParser flags;
  int64_t* n = flags.Int64("n", 3, "");
  auto argv = Argv({"--help", "--n=5"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(flags.help_requested());
  EXPECT_EQ(*n, 5);
  auto plain = Argv({"--n=1"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(plain.size()), plain.data()).ok());
  EXPECT_FALSE(flags.help_requested());
}

TEST(FlagsTest, ParseMainExitCodes) {
  FlagParser flags;
  flags.Int64("n", 0, "");
  auto help = Argv({"--help"});
  EXPECT_EQ(flags.ParseMain(static_cast<int>(help.size()), help.data()), 0);
  auto bad = Argv({"--mystery"});
  EXPECT_EQ(flags.ParseMain(static_cast<int>(bad.size()), bad.data()), 1);
  auto good = Argv({"--n=2"});
  EXPECT_EQ(flags.ParseMain(static_cast<int>(good.size()), good.data()),
            std::nullopt);
}

TEST(FlagsTest, RejectsBadValues) {
  FlagParser flags;
  flags.Int64("n", 0, "");
  flags.Double("d", 0, "");
  flags.Bool("b", false, "");
  flags.String("s", "", "");
  auto bad_int = Argv({"--n=abc"});
  EXPECT_FALSE(
      flags.Parse(static_cast<int>(bad_int.size()), bad_int.data()).ok());
  auto bad_double = Argv({"--d=x"});
  EXPECT_FALSE(
      flags.Parse(static_cast<int>(bad_double.size()), bad_double.data())
          .ok());
  auto bad_bool = Argv({"--b=maybe"});
  EXPECT_FALSE(
      flags.Parse(static_cast<int>(bad_bool.size()), bad_bool.data()).ok());
  auto bare_string = Argv({"--s"});
  EXPECT_FALSE(
      flags.Parse(static_cast<int>(bare_string.size()), bare_string.data())
          .ok());
  auto bare_int = Argv({"--n"});
  EXPECT_FALSE(
      flags.Parse(static_cast<int>(bare_int.size()), bare_int.data()).ok());
}

TEST(FlagsTest, RejectsPositionalArguments) {
  FlagParser flags;
  auto argv = Argv({"positional"});
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagsTest, EmptyStringValueAllowed) {
  FlagParser flags;
  std::string* s = flags.String("s", "default", "");
  auto argv = Argv({"--s="});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(*s, "");
}

TEST(FlagsTest, UsageListsFlagsInRegistrationOrder) {
  FlagParser flags;
  flags.Int64("zeta", 1, "last letter");
  flags.Bool("alpha", true, "first letter");
  std::string usage = flags.Usage();
  auto zeta_pos = usage.find("--zeta");
  auto alpha_pos = usage.find("--alpha");
  ASSERT_NE(zeta_pos, std::string::npos);
  ASSERT_NE(alpha_pos, std::string::npos);
  EXPECT_LT(zeta_pos, alpha_pos);
  EXPECT_NE(usage.find("(default: 1)"), std::string::npos);
  EXPECT_NE(usage.find("last letter"), std::string::npos);
}

}  // namespace
}  // namespace flinkless
