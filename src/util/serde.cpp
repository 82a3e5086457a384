#include "src/util/serde.hpp"

namespace mnm::util {

Writer& Writer::u8(std::uint8_t v) {
  buf_.push_back(v);
  return *this;
}

Writer& Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  return *this;
}

Writer& Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  return *this;
}

Writer& Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  return *this;
}

Writer& Writer::i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }

Writer& Writer::boolean(bool v) { return u8(v ? 1 : 0); }

Writer& Writer::bytes(ByteView b) {
  if (b.size() > UINT32_MAX) throw SerdeError("Writer::bytes: too large");
  u32(static_cast<std::uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
  return *this;
}

Writer& Writer::str(std::string_view s) {
  if (s.size() > UINT32_MAX) throw SerdeError("Writer::str: too large");
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
  return *this;
}

Writer& Writer::raw(ByteView b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
  return *this;
}

Writer& Writer::patch_u32(std::size_t pos, std::uint32_t v) {
  if (pos + 4 > buf_.size()) throw SerdeError("Writer::patch_u32: out of range");
  for (int i = 0; i < 4; ++i) {
    buf_[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return *this;
}

Writer& Writer::truncate(std::size_t size) {
  if (size < buf_.size()) buf_.resize(size);
  return *this;
}

Writer& Writer::checksum() { return u64(fnv1a(kFnvBasis, buf_)); }

std::optional<ByteView> checked_body(ByteView raw) {
  if (raw.size() < 8) return std::nullopt;
  const ByteView body = raw.first(raw.size() - 8);
  if (Reader(raw.last(8)).u64() != fnv1a(kFnvBasis, body)) return std::nullopt;
  return body;
}

void Reader::need(std::size_t n) const {
  if (buf_.size() - pos_ < n) throw SerdeError("Reader: truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return buf_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(buf_[pos_]) |
                    static_cast<std::uint16_t>(buf_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw SerdeError("Reader::boolean: invalid value");
  return v == 1;
}

Bytes Reader::bytes() {
  const std::uint32_t n = u32();
  need(n);
  Bytes out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

ByteView Reader::bytes_view() {
  const std::uint32_t n = u32();
  return raw_view(n);
}

ByteView Reader::raw_view(std::size_t n) {
  need(n);
  ByteView out = buf_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Bytes Reader::raw(std::size_t n) {
  need(n);
  Bytes out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

void Reader::expect_end() const {
  if (!at_end()) throw SerdeError("Reader: trailing bytes");
}

}  // namespace mnm::util
