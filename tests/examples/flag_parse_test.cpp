// The example binaries' numeric flag parsing (examples/flag_parse.hpp):
// a flag value is the whole argument or nothing — trailing characters and
// out-of-range values are refused instead of being truncated ("4x" -> 4)
// or overflowing (std::atoi on "99999999999" is undefined behaviour).
#include "examples/flag_parse.hpp"

#include <gtest/gtest.h>

#include <climits>

namespace asipfb::examples {
namespace {

TEST(FlagParse, IntegerAcceptsExactlyOneInRangeNumber) {
  EXPECT_EQ(parse_int_flag("4", 1, INT_MAX), 4);
  EXPECT_EQ(parse_int_flag("0", 0, 65535), 0);
  EXPECT_EQ(parse_int_flag("65535", 0, 65535), 65535);
  EXPECT_EQ(parse_int_flag("-3", INT_MIN, INT_MAX), -3);
}

TEST(FlagParse, IntegerRefusesTrailingCharactersAndEmptyText) {
  EXPECT_FALSE(parse_int_flag(nullptr, 0, INT_MAX).has_value());  // No value.
  EXPECT_FALSE(parse_int_flag("4x", 1, INT_MAX).has_value());
  EXPECT_FALSE(parse_int_flag("80x", 0, 65535).has_value());
  EXPECT_FALSE(parse_int_flag("3 ", 1, INT_MAX).has_value());
  EXPECT_FALSE(parse_int_flag("1.5", 1, INT_MAX).has_value());
  EXPECT_FALSE(parse_int_flag("", 0, INT_MAX).has_value());
  EXPECT_FALSE(parse_int_flag("x", 0, INT_MAX).has_value());
}

TEST(FlagParse, IntegerRefusesOutOfRangeValues) {
  EXPECT_FALSE(parse_int_flag("70000", 0, 65535).has_value());
  EXPECT_FALSE(parse_int_flag("0", 1, INT_MAX).has_value());
  EXPECT_FALSE(parse_int_flag("-1", 0, 65535).has_value());
  EXPECT_FALSE(parse_int_flag("99999999999", 1, INT_MAX).has_value());
  // Beyond long long itself: strtoll saturates and sets ERANGE.
  EXPECT_FALSE(
      parse_int_flag("99999999999999999999999", LLONG_MIN, LLONG_MAX)
          .has_value());
}

TEST(FlagParse, UnsignedAndFloatingPointAreStrictToo) {
  EXPECT_EQ(parse_u64_flag("0x10"), 16u);
  EXPECT_EQ(parse_u64_flag("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_u64_flag(nullptr).has_value());
  EXPECT_FALSE(parse_u64_flag("12q").has_value());
  EXPECT_FALSE(parse_u64_flag("-1").has_value());
  EXPECT_FALSE(parse_u64_flag("18446744073709551616").has_value());

  EXPECT_EQ(parse_double_flag("4.5"), 4.5);
  EXPECT_FALSE(parse_double_flag(nullptr).has_value());
  EXPECT_FALSE(parse_double_flag("4%").has_value());
  EXPECT_FALSE(parse_double_flag("").has_value());
  EXPECT_FALSE(parse_double_flag("1e999").has_value());
}

}  // namespace
}  // namespace asipfb::examples
