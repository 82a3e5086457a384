// Minimal canonical serialization.
//
// Signatures (src/crypto) are computed over byte strings, so every signed
// structure needs a canonical encoding. `Writer` appends little-endian
// fixed-width integers and length-prefixed byte strings; `Reader` parses the
// same format with strict bounds checking and throws `SerdeError` on any
// malformed input. Byzantine strategies deliberately produce malformed
// encodings in tests, so Reader failures must be exceptions, not UB.

#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/bytes.hpp"

namespace mnm::util {

class SerdeError : public std::runtime_error {
 public:
  explicit SerdeError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  Writer() = default;
  /// Pre-size the output buffer; encoders that know their message size use
  /// this so the vector never regrows byte-by-byte on the hot path.
  explicit Writer(std::size_t size_hint) { buf_.reserve(size_hint); }

  Writer& reserve(std::size_t total) {
    buf_.reserve(total);
    return *this;
  }

  Writer& u8(std::uint8_t v);
  Writer& u16(std::uint16_t v);
  Writer& u32(std::uint32_t v);
  Writer& u64(std::uint64_t v);
  Writer& i64(std::int64_t v);
  Writer& boolean(bool v);
  /// Length-prefixed (u32) byte string.
  Writer& bytes(ByteView b);
  /// Length-prefixed (u32) UTF-8/opaque string.
  Writer& str(std::string_view s);
  /// Raw append with no length prefix (for fixed-width digests).
  Writer& raw(ByteView b);

  /// Overwrite the u32 previously written at byte offset `pos` (for length
  /// prefixes whose value is only known after the body is encoded).
  Writer& patch_u32(std::size_t pos, std::uint32_t v);
  /// Drop everything written after the first `size` bytes.
  Writer& truncate(std::size_t size);
  /// Append the u64 FNV-1a of every byte written so far: the trailer of
  /// self-checking blobs (state snapshots, range drains). checked_body()
  /// is the inverse.
  Writer& checksum();

  std::size_t size() const { return buf_.size(); }
  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Bounds-checked parser over a non-owning byte view. The viewed storage
/// (Bytes, Buffer, sub-range) must outlive the Reader.
class Reader {
 public:
  explicit Reader(ByteView buf) : buf_(buf) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  bool boolean();
  Bytes bytes();
  std::string str();
  /// Read exactly n raw bytes.
  Bytes raw(std::size_t n);
  /// Zero-copy variants: view into the underlying storage.
  ByteView bytes_view();
  ByteView raw_view(std::size_t n);

  bool at_end() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

  /// Throws SerdeError unless the whole buffer was consumed. Call at the end
  /// of every message parser so trailing garbage is rejected.
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  ByteView buf_;
  std::size_t pos_ = 0;
};

/// The bytes before a Writer::checksum() trailer; nullopt when the trailer
/// is missing or does not match them.
std::optional<ByteView> checked_body(ByteView raw);

}  // namespace mnm::util
