// Byte-string utilities shared across the library.
//
// The M&M model (paper §3) treats register contents and message payloads as
// opaque values; we represent both as `Bytes`. Helpers here convert between
// Bytes, std::string and hex, and provide a canonical "bottom" (⊥) encoding:
// the empty byte string. Every register starts at ⊥ and the algorithms test
// for it with `is_bottom`.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mnm::util {

using Bytes = std::vector<std::uint8_t>;

/// Non-owning view over contiguous bytes. Hot paths (Reader, message
/// decoders) take ByteView so callers can hand them a Bytes, a Buffer
/// (buffer.hpp) or a sub-range without materializing a copy.
using ByteView = std::span<const std::uint8_t>;

inline bool view_equal(ByteView a, ByteView b) {
  return a.size() == b.size() &&
         (a.empty() || std::equal(a.begin(), a.end(), b.begin()));
}

inline Bytes to_bytes(ByteView v) { return Bytes(v.begin(), v.end()); }

/// The paper's ⊥ value: registers are initialized to it and algorithms
/// compare against it to detect "nothing written yet".
inline const Bytes& bottom() {
  static const Bytes b{};
  return b;
}

inline bool is_bottom(const Bytes& b) { return b.empty(); }
inline bool is_bottom(ByteView b) { return b.empty(); }

inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

inline std::string to_string(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

inline std::string to_string(ByteView b) {
  return std::string(b.begin(), b.end());
}

/// 64-bit FNV-1a: the one hash behind key routing, state fingerprints and
/// snapshot checksums. Start from kFnvBasis and fold bytes or
/// little-endian u64s into the running value.
inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

inline std::uint64_t fnv1a(std::uint64_t h, ByteView bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint8_t>(v >> (i * 8));
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Lowercase hex encoding (for logs, digests and test expectations).
std::string hex_encode(const Bytes& b);

/// Inverse of hex_encode. Throws std::invalid_argument on malformed input.
Bytes hex_decode(std::string_view hex);

/// Constant-time equality; used when comparing MACs so that (simulated)
/// adversaries cannot use comparison timing as an oracle. In a simulator this
/// is about fidelity of the crypto module's contract, not real side channels.
bool ct_equal(const Bytes& a, const Bytes& b);

}  // namespace mnm::util
