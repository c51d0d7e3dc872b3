// Little-endian binary encoding shared by every fpss on-disk and on-wire
// format ("fpss-graph", "fpss-snap", "fpss-wire"). One appender set and one
// latching-failure reader so each codec validates input the same way: a
// short or corrupt buffer flips `fail` once and every subsequent read
// returns zero instead of touching out-of-range bytes — callers check
// `fail` after decoding instead of guarding each field.
//
// Cost values travel as int64 with -1 encoding +infinity (finite costs are
// non-negative by construction), the convention fixed by the snapshot
// format; the wire codec reuses it so a remote Reply decodes to the same
// Cost bit pattern the in-process path produced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/cost.h"

namespace fpss::util {

/// Appends the low `N` bytes of `v`, least significant first. The bytes
/// are built in a local array and appended at once: one capacity check
/// per value, and the shift loop compiles to a single store.
template <std::size_t N>
void append_le(std::string& out, std::uint64_t v) {
  char bytes[N] = {};
  for (std::size_t i = 0; i < N; ++i)
    bytes[i] = static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i)));
  out.append(bytes, N);
}

inline void append_u64(std::string& out, std::uint64_t v) {
  append_le<8>(out, v);
}

inline void append_u32(std::string& out, std::uint32_t v) {
  append_le<4>(out, v);
}

inline void append_u16(std::string& out, std::uint16_t v) {
  append_le<2>(out, v);
}

inline void append_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void append_i64(std::string& out, std::int64_t v) {
  append_u64(out, static_cast<std::uint64_t>(v));
}

/// The serialized form of +infinity (see file comment).
inline constexpr std::int64_t kInfCostWire = -1;

inline std::int64_t encode_cost(Cost c) {
  return c.is_infinite() ? kInfCostWire : c.value();
}

inline void append_cost(std::string& out, Cost c) {
  append_i64(out, encode_cost(c));
}

/// Sequential little-endian reader; `fail` latches on the first short read
/// and stays set (reads after a failure return zero).
struct BinReader {
  std::string_view data;
  std::size_t pos = 0;
  bool fail = false;

  std::size_t remaining() const { return fail ? 0 : data.size() - pos; }

  std::uint8_t u8() {
    if (fail || data.size() - pos < 1) {
      fail = true;
      return 0;
    }
    return static_cast<std::uint8_t>(data[pos++]);
  }

  std::uint16_t u16() {
    if (fail || data.size() - pos < 2) {
      fail = true;
      return 0;
    }
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i)
      v = static_cast<std::uint16_t>(
          v | static_cast<std::uint16_t>(
                  static_cast<std::uint8_t>(
                      data[pos + static_cast<std::size_t>(i)]))
                  << (8 * i));
    pos += 2;
    return v;
  }

  std::uint32_t u32() {
    if (fail || data.size() - pos < 4) {
      fail = true;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(data[pos + static_cast<std::size_t>(i)]))
           << (8 * i);
    pos += 4;
    return v;
  }

  std::uint64_t u64() {
    if (fail || data.size() - pos < 8) {
      fail = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data[pos + static_cast<std::size_t>(i)]))
           << (8 * i);
    pos += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  /// Decodes a serialized cost; latches `fail` on out-of-range finite
  /// values (negative other than the infinity sentinel, or above
  /// Cost::kMaxFinite) so corrupt input cannot construct an invalid Cost.
  Cost cost() {
    const std::int64_t raw = i64();
    if (fail) return Cost::infinity();
    if (raw == kInfCostWire) return Cost::infinity();
    if (raw < 0 || raw > Cost::kMaxFinite) {
      fail = true;
      return Cost::infinity();
    }
    return Cost{raw};
  }
};

}  // namespace fpss::util
