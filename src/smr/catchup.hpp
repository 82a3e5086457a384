// Catch-up wire codec: how a restarting replica fetches a peer's latest
// state-machine snapshot + retained log suffix over the slot hub's control
// frame (core::SlotTransportHub::kControlSlot).
//
// A request names the first slot the requester is missing; a response
// carries an optional snapshot (covering slots [0, snap_slot)) plus a run
// of decided slot payloads starting at first_slot. Responses are capped at
// kMaxCatchupSlots payloads — a requester far behind simply asks again from
// its new applied prefix. These two frames are all the control channel
// carries (a leading tag byte tells them apart); a reconfiguration drain
// reads the local machine and sends nothing (smr::Log::fetch_range).
//
// Both decoders are strict and total: the bytes arrive from an unverified
// peer, so malformed input yields nullopt (the installer counts a
// rejection), pre-sizing is capped by the bytes actually present, and
// trailing garbage is rejected (expect_end). Nothing in this path throws
// out of the install loop.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common.hpp"
#include "src/util/bytes.hpp"

namespace mnm::smr {

/// Max decided-slot payloads per catch-up response.
inline constexpr std::size_t kMaxCatchupSlots = 512;

struct CatchupRequest {
  Slot from = 0;  // first slot the requester has not applied
};

struct CatchupResponse {
  Slot snap_slot = 0;  // slots covered by `snapshot` (0 = none attached)
  Bytes snapshot;      // StateMachine::snapshot() bytes; empty when none
  Slot first_slot = 0;
  std::vector<Bytes> payloads;  // decided batch payloads for consecutive
                                // slots first_slot, first_slot + 1, ...
};

Bytes encode_catchup_request(const CatchupRequest& req);
std::optional<CatchupRequest> decode_catchup_request(util::ByteView raw);

Bytes encode_catchup_response(const CatchupResponse& resp);
std::optional<CatchupResponse> decode_catchup_response(util::ByteView raw);

}  // namespace mnm::smr
