// Tests for byte utilities and canonical serialization.

#include <gtest/gtest.h>

#include <memory>

#include "src/util/bytes.hpp"
#include "src/util/serde.hpp"
#include "src/util/slot_window.hpp"

namespace mnm::util {
namespace {

TEST(Bytes, BottomIsEmpty) {
  EXPECT_TRUE(is_bottom(bottom()));
  EXPECT_TRUE(is_bottom(Bytes{}));
  EXPECT_FALSE(is_bottom(to_bytes("x")));
}

TEST(Bytes, RoundTripString) {
  const std::string s = "hello \x01\x02 world";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

TEST(Hex, EncodeDecodeRoundTrip) {
  const Bytes b{0x00, 0x01, 0xab, 0xcd, 0xef, 0xff};
  EXPECT_EQ(hex_encode(b), "0001abcdefff");
  EXPECT_EQ(hex_decode("0001abcdefff"), b);
  EXPECT_EQ(hex_decode("0001ABCDEFFF"), b);
}

TEST(Hex, RejectsMalformed) {
  EXPECT_THROW(hex_decode("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(hex_decode("zz"), std::invalid_argument);    // non-hex
}

TEST(Hex, EmptyIsEmpty) {
  EXPECT_EQ(hex_encode({}), "");
  EXPECT_EQ(hex_decode(""), Bytes{});
}

TEST(CtEqual, Basics) {
  EXPECT_TRUE(ct_equal(to_bytes("abc"), to_bytes("abc")));
  EXPECT_FALSE(ct_equal(to_bytes("abc"), to_bytes("abd")));
  EXPECT_FALSE(ct_equal(to_bytes("abc"), to_bytes("ab")));
  EXPECT_TRUE(ct_equal({}, {}));
}

TEST(Serde, IntegersRoundTrip) {
  Writer w;
  w.u8(0xAB).u16(0xBEEF).u32(0xDEADBEEF).u64(0x0123456789ABCDEFULL).i64(-42);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.at_end());
}

TEST(Serde, BytesAndStringsRoundTrip) {
  Writer w;
  w.bytes(to_bytes("payload")).str("name").bytes({});
  Reader r(w.data());
  EXPECT_EQ(r.bytes(), to_bytes("payload"));
  EXPECT_EQ(r.str(), "name");
  EXPECT_EQ(r.bytes(), Bytes{});
  r.expect_end();
}

TEST(Serde, BooleanStrict) {
  Writer w;
  w.boolean(true).boolean(false).u8(2);
  Reader r(w.data());
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_THROW(r.boolean(), SerdeError);  // 2 is not a valid bool
}

TEST(Serde, TruncatedInputThrows) {
  Writer w;
  w.u32(7);
  Reader r(w.data());
  EXPECT_THROW(r.u64(), SerdeError);
}

TEST(Serde, TruncatedLengthPrefixedBytesThrows) {
  Writer w;
  w.u32(1000);  // claims 1000 bytes follow; none do
  Reader r(w.data());
  EXPECT_THROW(r.bytes(), SerdeError);
}

TEST(Serde, ExpectEndRejectsTrailingGarbage) {
  Writer w;
  w.u8(1).u8(2);
  Reader r(w.data());
  (void)r.u8();
  EXPECT_THROW(r.expect_end(), SerdeError);
}

TEST(Serde, RawReadsExactCount) {
  Writer w;
  w.raw(to_bytes("abcdef"));
  Reader r(w.data());
  EXPECT_EQ(r.raw(3), to_bytes("abc"));
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_THROW(r.raw(4), SerdeError);
}


// --- Serde hot-path additions: size hints, length patching, view reads. ---

TEST(Writer, ReserveDoesNotChangeEncoding) {
  Writer plain;
  plain.u8(1).u32(7).bytes(to_bytes("payload"));
  Writer hinted(1 + 4 + 4 + 7);
  hinted.u8(1).u32(7).bytes(to_bytes("payload"));
  EXPECT_EQ(plain.data(), hinted.data());
}

TEST(Writer, PatchU32OverwritesInPlace) {
  Writer w;
  const std::size_t at = w.size();
  w.u32(0);  // placeholder length
  w.str("body");
  w.patch_u32(at, static_cast<std::uint32_t>(w.size() - at - 4));
  Reader r(w.data());
  EXPECT_EQ(r.u32(), w.size() - 4);
  EXPECT_EQ(r.str(), "body");
  EXPECT_THROW(Writer().patch_u32(0, 1), SerdeError);  // out of range
}

TEST(Reader, ViewReadsAliasTheSource) {
  Writer w;
  w.bytes(to_bytes("hello")).u8(9);
  const Bytes& buf = w.data();
  Reader r(buf);
  const ByteView v = r.bytes_view();
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v.data(), buf.data() + 4);  // points into the source, no copy
  EXPECT_EQ(to_string(v), "hello");
  EXPECT_EQ(r.u8(), 9u);
  r.expect_end();
}

TEST(Reader, RawViewBoundsChecked) {
  const Bytes buf = to_bytes("abc");
  Reader r(buf);
  EXPECT_EQ(to_string(r.raw_view(2)), "ab");
  EXPECT_THROW(r.raw_view(2), SerdeError);
}

TEST(SlotWindow, EntriesLiveFromFirstUseUntilTheFloorPassesThem) {
  SlotWindow<int> w;
  int made = 0;
  const auto make = [&] { return std::make_unique<int>(++made); };
  EXPECT_EQ(w.get_or_make(3, make), 1);
  EXPECT_EQ(w.get_or_make(3, make), 1);  // built once
  EXPECT_EQ(w.get_or_make(0, make), 2);
  EXPECT_EQ(w.find(1), nullptr);  // never touched
  EXPECT_EQ(w.find(9), nullptr);  // past the end
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.end(), 4u);

  w.erase(0);
  EXPECT_EQ(w.find(0), nullptr);
  EXPECT_EQ(w.size(), 1u);

  w.raise_floor(3);
  EXPECT_EQ(w.floor(), 3u);
  ASSERT_NE(w.find(3), nullptr);
  EXPECT_EQ(*w.find(3), 1);
  w.raise_floor(2);  // never lowers
  EXPECT_EQ(w.floor(), 3u);

  w.raise_floor(10);  // past every cell: the table empties
  EXPECT_EQ(w.floor(), 10u);
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.find(3), nullptr);
  EXPECT_EQ(w.get_or_make(12, make), 3);
  EXPECT_EQ(w.end(), 13u);
}

}  // namespace
}  // namespace mnm::util
