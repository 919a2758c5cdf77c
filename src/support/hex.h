#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.h"

namespace gks {

/// Lower-case hexadecimal encoding of a byte range ("d41d8cd9...").
std::string to_hex(std::span<const std::uint8_t> bytes);

/// Decodes a hex string (case-insensitive) into bytes.
/// Throws InvalidArgument on odd length or non-hex characters.
std::vector<std::uint8_t> from_hex(std::string_view hex);

/// Decodes a hex string into exactly out.size() bytes. Throws
/// InvalidArgument on odd length, a length that decodes to any other
/// byte count, or non-hex characters.
void from_hex_into(std::string_view hex, std::span<std::uint8_t> out);

/// Fixed-size decode for digest parsing, straight into the array (no
/// heap buffer); throws if the string does not decode to exactly N
/// bytes.
template <std::size_t N>
std::array<std::uint8_t, N> from_hex_fixed(std::string_view hex) {
  std::array<std::uint8_t, N> out{};
  from_hex_into(hex, out);
  return out;
}

}  // namespace gks
