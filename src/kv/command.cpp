#include "src/kv/command.hpp"

namespace mnm::kv {

Bytes encode_command(const Command& c) {
  util::Writer w(1 + 8 + 8 + 4 + c.key.size() + 4 + c.value.size() + 4 +
                 c.expected.size());
  w.u8(static_cast<std::uint8_t>(c.op))
      .u64(c.client)
      .u64(c.seq)
      .bytes(c.key)
      .bytes(c.value)
      .bytes(c.expected);
  return std::move(w).take();
}

std::optional<Command> decode_command(util::ByteView raw) {
  try {
    util::Reader r(raw);
    Command c;
    const std::uint8_t op = r.u8();
    if (op < static_cast<std::uint8_t>(Op::kGet) ||
        op > static_cast<std::uint8_t>(Op::kTxnAbort)) {
      return std::nullopt;
    }
    c.op = static_cast<Op>(op);
    c.client = r.u64();
    c.seq = r.u64();
    c.key = r.bytes();
    c.value = r.bytes();
    c.expected = r.bytes();
    r.expect_end();
    return c;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

namespace {
constexpr char kSigningTag[] = "kvc1";
constexpr std::size_t kSigningTagLen = 4;
constexpr std::size_t kMacSize = 32;  // HMAC-SHA256
}  // namespace

Bytes command_signing_bytes(std::uint32_t group,
                            util::ByteView canonical_command) {
  Bytes msg;
  msg.reserve(kSigningTagLen + 4 + canonical_command.size());
  msg.insert(msg.end(), kSigningTag, kSigningTag + kSigningTagLen);
  for (int i = 3; i >= 0; --i) {
    msg.push_back(static_cast<std::uint8_t>(group >> (i * 8)));
  }
  msg.insert(msg.end(), canonical_command.begin(), canonical_command.end());
  return msg;
}

Bytes encode_signed_command(util::ByteView canonical_command,
                            const crypto::Signature& sig) {
  util::Writer w(1 + 4 + canonical_command.size() + 4 + 4 + sig.mac.size());
  w.u8(kSignedCommandMarker);
  w.bytes(canonical_command);
  sig.encode(w);
  return std::move(w).take();
}

std::optional<SignedCommand> decode_signed_command(util::ByteView raw) {
  if (raw.empty()) return std::nullopt;
  if (raw[0] != kSignedCommandMarker) {
    // Legacy unsigned wire — exactly decode_command.
    std::optional<Command> c = decode_command(raw);
    if (!c.has_value()) return std::nullopt;
    SignedCommand out;
    out.cmd = *std::move(c);
    return out;
  }
  try {
    util::Reader r(raw);
    (void)r.u8();  // marker
    SignedCommand out;
    out.has_sig = true;
    out.body = r.bytes();
    out.sig = crypto::Signature::decode(r);
    r.expect_end();
    // Canonical-form checks: the MAC length is fixed and the inner command
    // must itself be strict — a signed wrapper around junk is malformed,
    // not forged.
    if (out.sig.mac.size() != kMacSize) return std::nullopt;
    std::optional<Command> c = decode_command(out.body);
    if (!c.has_value()) return std::nullopt;
    out.cmd = *std::move(c);
    return out;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

}  // namespace mnm::kv
