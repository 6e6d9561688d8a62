#include "common/text.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace nu {
namespace {

TEST(TextTest, MalformedNumbersAreRejected) {
  // Every token here is refused by all three parsers.
  for (const char* token :
       {"", " ", "abc", "7x", "x7", "1 2", "1,2", "0x10", "+7", "--1", "1e",
        "nan", "-nan", "inf", "-inf", "infinity"}) {
    SCOPED_TRACE(token);
    EXPECT_FALSE(ParseReal(token).has_value());
    EXPECT_FALSE(ParseCount(token).has_value());
    EXPECT_FALSE(ParseInt(token).has_value());
  }
  // Out of range for the type, or a sign or fraction on a count.
  EXPECT_FALSE(ParseReal("1e999").has_value());
  EXPECT_FALSE(ParseReal("-1e999").has_value());
  EXPECT_FALSE(ParseCount("-1").has_value());
  EXPECT_FALSE(ParseCount("1.5").has_value());
  EXPECT_FALSE(ParseCount("18446744073709551616").has_value());
  EXPECT_FALSE(ParseCount("256", 255).has_value());
  EXPECT_FALSE(ParseInt("9223372036854775808").has_value());
  EXPECT_FALSE(ParseInt("1.5").has_value());
}

TEST(TextTest, WholeTokensParseWithSurroundingSpaces) {
  EXPECT_EQ(ParseReal(" 5"), 5.0);
  EXPECT_EQ(ParseReal("2.5\t"), 2.5);
  EXPECT_EQ(ParseReal("-1e-3"), -1e-3);
  EXPECT_EQ(ParseReal(".5"), 0.5);
  EXPECT_EQ(ParseCount(" 42 "), 42u);
  EXPECT_EQ(ParseCount("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(ParseCount("255", 255), 255u);
  EXPECT_EQ(ParseInt("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(ParseInt("-1"), -1);
}

TEST(TextTest, FormatRealRoundTripsExactly) {
  for (const double value : {0.0, 0.1, 1.0 / 3.0, 2.5e-300, 1e21, -7.25}) {
    const std::string text = FormatReal(value);
    EXPECT_EQ(ParseReal(text), value) << text;
  }
  EXPECT_EQ(FormatReal(0.1), "0.1");
  EXPECT_EQ(FormatReal(3.0), "3");
}

TEST(TextTest, TokensAndSplit) {
  const std::vector<std::string_view> tokens = Tokens("  a\tbb  c \r\n");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "bb");
  EXPECT_EQ(tokens[2], "c");
  EXPECT_TRUE(Tokens(" \t ").empty());

  const std::vector<std::string_view> fields = Split("a::b:", ':');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
  ASSERT_EQ(Split("", ',').size(), 1u);
  EXPECT_EQ(Split("", ',')[0], "");
}

}  // namespace
}  // namespace nu
