#include "support/hex.h"

#include <array>

#include "support/error.h"

namespace gks {
namespace {

constexpr char kDigits[] = "0123456789abcdef";

/// kNibble[c] is the value of hex digit c, or 0xFF when c is not one.
/// Decoding ORs every looked-up value together and tests the high bits
/// once per string, so the per-character work carries no branch on the
/// input data.
constexpr std::array<std::uint8_t, 256> kNibble = [] {
  std::array<std::uint8_t, 256> t{};
  t.fill(0xFF);
  for (int i = 0; i < 10; ++i) t['0' + i] = static_cast<std::uint8_t>(i);
  for (int i = 0; i < 6; ++i) {
    t['a' + i] = static_cast<std::uint8_t>(10 + i);
    t['A' + i] = static_cast<std::uint8_t>(10 + i);
  }
  return t;
}();

/// Decodes hex.size() / 2 bytes into `out` (even length checked by the
/// caller); throws on a non-hex character.
void decode_pairs(std::string_view hex, std::uint8_t* out) {
  std::uint8_t bad = 0;
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const std::uint8_t hi = kNibble[static_cast<unsigned char>(hex[i])];
    const std::uint8_t lo = kNibble[static_cast<unsigned char>(hex[i + 1])];
    bad |= hi | lo;
    out[i / 2] = static_cast<std::uint8_t>((hi << 4) | (lo & 0xF));
  }
  GKS_REQUIRE((bad & 0xF0) == 0, "non-hex character in string");
}

}  // namespace

std::string to_hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  GKS_REQUIRE(hex.size() % 2 == 0, "hex string has odd length");
  std::vector<std::uint8_t> out(hex.size() / 2);
  decode_pairs(hex, out.data());
  return out;
}

void from_hex_into(std::string_view hex, std::span<std::uint8_t> out) {
  GKS_REQUIRE(hex.size() % 2 == 0, "hex string has odd length");
  if (hex.size() / 2 != out.size()) {
    throw InvalidArgument("hex string decodes to " +
                          std::to_string(hex.size() / 2) + " bytes, expected " +
                          std::to_string(out.size()));
  }
  decode_pairs(hex, out.data());
}

}  // namespace gks
