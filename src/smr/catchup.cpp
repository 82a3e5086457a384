#include "src/smr/catchup.hpp"

#include <algorithm>

#include "src/util/serde.hpp"

namespace mnm::smr {

namespace {
// Leading tag byte so both message kinds share the one control channel.
constexpr std::uint8_t kRequestTag = 1;
constexpr std::uint8_t kResponseTag = 2;
}  // namespace

Bytes encode_catchup_request(const CatchupRequest& req) {
  util::Writer w(1 + 8);
  w.u8(kRequestTag).u64(req.from);
  return std::move(w).take();
}

std::optional<CatchupRequest> decode_catchup_request(util::ByteView raw) {
  try {
    util::Reader r(raw);
    if (r.u8() != kRequestTag) return std::nullopt;
    CatchupRequest req;
    req.from = r.u64();
    r.expect_end();
    return req;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

Bytes encode_catchup_response(const CatchupResponse& resp) {
  std::size_t payload = 0;
  for (const Bytes& p : resp.payloads) payload += 4 + p.size();
  util::Writer w(1 + 8 + 4 + resp.snapshot.size() + 8 + 4 + payload);
  w.u8(kResponseTag)
      .u64(resp.snap_slot)
      .bytes(resp.snapshot)
      .u64(resp.first_slot)
      .u32(static_cast<std::uint32_t>(resp.payloads.size()));
  for (const Bytes& p : resp.payloads) w.bytes(p);
  return std::move(w).take();
}

std::optional<CatchupResponse> decode_catchup_response(util::ByteView raw) {
  try {
    util::Reader r(raw);
    if (r.u8() != kResponseTag) return std::nullopt;
    CatchupResponse resp;
    resp.snap_slot = r.u64();
    resp.snapshot = r.bytes();
    resp.first_slot = r.u64();
    const std::uint32_t count = r.u32();
    if (count > kMaxCatchupSlots) return std::nullopt;
    // The count is peer-controlled: cap the pre-size by the bytes actually
    // present (every payload costs at least its 4-byte length prefix) so a
    // forged header cannot force a huge allocation before parsing fails.
    resp.payloads.reserve(std::min<std::size_t>(count, r.remaining() / 4));
    for (std::uint32_t i = 0; i < count; ++i) resp.payloads.push_back(r.bytes());
    r.expect_end();
    return resp;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

}  // namespace mnm::smr
