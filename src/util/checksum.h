// Two hashes, two jobs.
//
// Fnv1a64 digests *content*: the service layer's snapshot serialization
// folds a snapshot's fields into it to detect truncated or corrupted
// files, and block, root and content checksums are built from it. A
// streaming accumulator rather than a one-shot function so callers can
// fold heterogeneous fields (scalars, then whole arrays) into one digest
// in a fixed, documented order — the digest then identifies the *logical*
// snapshot content, independent of any file layout. Stored files and
// tests pin those digests.
//
// xxh64 checksums *bytes in flight*: every fpss-wire frame carries the
// XXH64 (seed 0) of its payload. It is computed twice per frame, once by
// each end, so it must be cheap: it folds four 64-bit lanes over 32-byte
// stripes where FNV-1a folds one byte at a time.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace fpss::util {

class Fnv1a64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  /// Folds one byte.
  constexpr void byte(std::uint8_t b) {
    hash_ = (hash_ ^ b) * kPrime;
  }

  /// Folds a 64-bit value, little-endian byte order (the on-disk order of
  /// the snapshot format, so hashing parsed values reproduces the digest
  /// of the raw payload).
  constexpr void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  constexpr void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  constexpr void u32(std::uint32_t v) { u64(v); }

  constexpr std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = kOffsetBasis;
};

namespace xxh64_detail {

inline constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
inline constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
inline constexpr std::uint64_t kP3 = 0x165667b19e3779f9ULL;
inline constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
inline constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ULL;

/// The `N` bytes at `p` as a little-endian integer.
template <std::size_t N>
std::uint64_t load_le(const char* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, N);
  } else {
    for (std::size_t i = 0; i < N; ++i)
      v |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return v;
}

inline std::uint64_t lane_round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kP2, 31) * kP1;
}

inline std::uint64_t merge(std::uint64_t h, std::uint64_t acc) {
  return (h ^ lane_round(0, acc)) * kP1 + kP4;
}

}  // namespace xxh64_detail

/// XXH64 of `bytes` with seed 0, the fpss-wire frame checksum.
inline std::uint64_t xxh64(std::string_view bytes) {
  using namespace xxh64_detail;
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  std::uint64_t h = kP5;
  if (bytes.size() >= 32) {
    std::uint64_t v[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
    for (; end - p >= 32; p += 32)
      for (int lane = 0; lane < 4; ++lane)
        v[lane] = lane_round(v[lane], load_le<8>(p + 8 * lane));
    h = std::rotl(v[0], 1) + std::rotl(v[1], 7) + std::rotl(v[2], 12) +
        std::rotl(v[3], 18);
    for (const std::uint64_t acc : v) h = merge(h, acc);
  }
  h += bytes.size();
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ lane_round(0, load_le<8>(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    h = std::rotl(h ^ (load_le<4>(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    const std::uint64_t byte = static_cast<unsigned char>(*p);
    h = std::rotl(h ^ (byte * kP5), 11) * kP1;
  }
  h = (h ^ (h >> 33)) * kP2;
  h = (h ^ (h >> 29)) * kP3;
  return h ^ (h >> 32);
}

}  // namespace fpss::util
