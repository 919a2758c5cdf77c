#include "support/hex.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "support/error.h"

namespace gks {
namespace {

TEST(Hex, EncodeEmpty) {
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>{}), "");
}

TEST(Hex, EncodeKnownBytes) {
  const std::uint8_t bytes[] = {0x00, 0x0f, 0xa5, 0xff};
  EXPECT_EQ(to_hex(bytes), "000fa5ff");
}

TEST(Hex, DecodeLowerAndUpperCase) {
  EXPECT_EQ(from_hex("0a1B2c"), (std::vector<std::uint8_t>{0x0a, 0x1b, 0x2c}));
}

TEST(Hex, RoundTrip) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<std::uint8_t>(i));
  EXPECT_EQ(from_hex(to_hex(bytes)), bytes);
}

TEST(Hex, DecodeRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), InvalidArgument);
}

TEST(Hex, DecodeRejectsNonHex) {
  EXPECT_THROW(from_hex("zz"), InvalidArgument);
  EXPECT_THROW(from_hex("0g"), InvalidArgument);
}

TEST(Hex, FixedSizeDecode) {
  const auto a = from_hex_fixed<4>("deadbeef");
  EXPECT_EQ(a[0], 0xde);
  EXPECT_EQ(a[3], 0xef);
  EXPECT_THROW(from_hex_fixed<3>("deadbeef"), InvalidArgument);
}

TEST(Hex, EveryByteValueDecodesExactlyWhenItIsAHexDigit) {
  for (int v = 0; v < 256; ++v) {
    const char c = static_cast<char>(v);
    const bool digit = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
                       (c >= 'A' && c <= 'F');
    const int value = c <= '9'   ? c - '0'
                      : c <= 'F' ? c - 'A' + 10
                                 : c - 'a' + 10;
    for (const bool high : {true, false}) {
      const std::string hex = high ? std::string{c, '0'} : std::string{'0', c};
      SCOPED_TRACE("byte " + std::to_string(v) + (high ? " high" : " low"));
      if (!digit) {
        EXPECT_THROW(from_hex(hex), InvalidArgument);
        EXPECT_THROW(from_hex_fixed<1>(hex), InvalidArgument);
        continue;
      }
      const auto expected =
          static_cast<std::uint8_t>(high ? value << 4 : value);
      EXPECT_EQ(from_hex(hex), std::vector<std::uint8_t>{expected});
      EXPECT_EQ(from_hex_fixed<1>(hex)[0], expected);
    }
  }
}

TEST(Hex, FixedSizeDecodeRejectsOddLengthAndWrongSize) {
  EXPECT_THROW(from_hex_fixed<2>("abc"), InvalidArgument);
  EXPECT_THROW(from_hex_fixed<2>("abcde"), InvalidArgument);
  EXPECT_THROW(from_hex_fixed<2>(""), InvalidArgument);
  EXPECT_THROW(from_hex_fixed<2>("ab"), InvalidArgument);
  EXPECT_THROW(from_hex_fixed<2>("abcdef"), InvalidArgument);
  EXPECT_THROW(from_hex_fixed<20>(std::string(32, 'a')), InvalidArgument);
  // A bad character anywhere in a right-sized string is caught too.
  EXPECT_THROW(from_hex_fixed<2>("abc-"), InvalidArgument);
  EXPECT_THROW(from_hex_fixed<2>(std::string("\0bcd", 4)), InvalidArgument);
}

TEST(Hex, FixedSizeRoundTrip) {
  std::array<std::uint8_t, 20> bytes{};
  for (int trial = 0; trial < 64; ++trial) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(trial * 37 + i * 101);
    }
    const std::string hex = to_hex(bytes);
    EXPECT_EQ(from_hex_fixed<20>(hex), bytes);
    std::string upper = hex;
    for (char& c : upper) {
      if (c >= 'a' && c <= 'f') c = static_cast<char>(c - 'a' + 'A');
    }
    EXPECT_EQ(from_hex_fixed<20>(upper), bytes);
  }
}

}  // namespace
}  // namespace gks
