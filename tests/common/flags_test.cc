#include "common/flags.h"

#include <gtest/gtest.h>

#include "common/text.h"

namespace nu {
namespace {

Flags ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  argv.push_back(const_cast<char*>("prog"));
  for (auto& s : storage) argv.push_back(s.data());
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsForm) {
  const Flags flags = ParseArgs({"--events=30", "--utilization=0.7"});
  EXPECT_EQ(flags.GetUint("events", 0), 30u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("utilization", 0.0), 0.7);
}

TEST(FlagsTest, SpaceForm) {
  const Flags flags = ParseArgs({"--events", "30", "--name", "lmtf"});
  EXPECT_EQ(flags.GetInt("events", 0), 30);
  EXPECT_EQ(flags.GetString("name", ""), "lmtf");
}

TEST(FlagsTest, BareBoolean) {
  const Flags flags = ParseArgs({"--csv", "--flow-level"});
  EXPECT_TRUE(flags.GetBool("csv", false));
  EXPECT_TRUE(flags.GetBool("flow-level", false));
  EXPECT_FALSE(flags.GetBool("absent", false));
  EXPECT_TRUE(flags.GetBool("absent", true));
}

TEST(FlagsTest, ExplicitBooleanValues) {
  const Flags flags = ParseArgs({"--a=true", "--b=false", "--c=1", "--d=0"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  const Flags flags = ParseArgs({});
  EXPECT_EQ(flags.GetUint("x", 42u), 42u);
  EXPECT_EQ(flags.GetString("y", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(flags.GetDouble("z", 1.5), 1.5);
}

TEST(FlagsTest, Positionals) {
  const Flags flags = ParseArgs({"first", "--k=2", "second"});
  ASSERT_EQ(flags.positionals().size(), 2u);
  EXPECT_EQ(flags.positionals()[0], "first");
  EXPECT_EQ(flags.positionals()[1], "second");
}

TEST(FlagsTest, HasMarksQueried) {
  const Flags flags = ParseArgs({"--known=1", "--typo=2"});
  EXPECT_TRUE(flags.Has("known"));
  const auto unqueried = flags.UnqueriedFlags();
  ASSERT_EQ(unqueried.size(), 1u);
  EXPECT_EQ(unqueried[0], "typo");
}

TEST(FlagsTest, UnqueriedEmptyAfterAllRead) {
  const Flags flags = ParseArgs({"--a=1", "--b=2"});
  (void)flags.GetInt("a", 0);
  (void)flags.GetInt("b", 0);
  EXPECT_TRUE(flags.UnqueriedFlags().empty());
}

TEST(FlagsTest, MalformedValuesThrowCorruptInput) {
  // Each value is read by the getter named in the row. None may abort, wrap
  // (-1 as 2^64 - 1), read a prefix (7x as 7) or let NaN through.
  enum class Getter { kInt, kUint, kDouble, kBool };
  const struct {
    const char* arg;
    Getter getter;
  } kCases[] = {
      {"--v=abc", Getter::kInt},      {"--v=7x", Getter::kInt},
      {"--v=", Getter::kInt},         {"--v=1.5", Getter::kInt},
      {"--v=-1", Getter::kUint},      {"--v=7x", Getter::kUint},
      {"--v=+7", Getter::kUint},      {"--v=0x10", Getter::kUint},
      {"--v=18446744073709551616", Getter::kUint},
      {"--v=abc", Getter::kDouble},   {"--v=7x", Getter::kDouble},
      {"--v=nan", Getter::kDouble},   {"--v=inf", Getter::kDouble},
      {"--v=-inf", Getter::kDouble},  {"--v=1e999", Getter::kDouble},
      {"--v", Getter::kDouble},       {"--v=maybe", Getter::kBool},
      {"--v=yes", Getter::kBool},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.arg);
    const Flags flags = ParseArgs({c.arg});
    switch (c.getter) {
      case Getter::kInt:
        EXPECT_THROW((void)flags.GetInt("v", 0), CorruptInput);
        break;
      case Getter::kUint:
        EXPECT_THROW((void)flags.GetUint("v", 0), CorruptInput);
        break;
      case Getter::kDouble:
        EXPECT_THROW((void)flags.GetDouble("v", 0.0), CorruptInput);
        break;
      case Getter::kBool:
        EXPECT_THROW((void)flags.GetBool("v", false), CorruptInput);
        break;
    }
  }
}

TEST(FlagsTest, NumbersFollowTheSharedRule) {
  const Flags flags =
      ParseArgs({"--i=-3", "--u= 5", "--d=1e-3", "--neg", "-2.5"});
  EXPECT_EQ(flags.GetInt("i", 0), -3);
  EXPECT_EQ(flags.GetUint("u", 0), 5u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("d", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("neg", 0.0), -2.5);
}

}  // namespace
}  // namespace nu
