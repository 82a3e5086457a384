#include "src/core/paxos_validator.hpp"

#include <map>
#include <utility>

#include "src/core/paxos.hpp"
#include "src/core/transport_mux.hpp"

namespace mnm::core {

namespace {

using trusted::History;
using trusted::HistoryEntry;
using trusted::Receipt;

/// Framing: returns the Paxos bytes if this payload is (framed or raw)
/// Paxos; nullopt for set-up payloads or garbage-with-setup-tag.
enum class Framing { kPaxos, kSetup, kMalformed };

Framing classify(const Bytes& payload, Bytes& paxos_bytes) {
  if (payload.empty()) return Framing::kMalformed;
  const std::uint8_t first = payload[0];
  if (first == kMuxSetup) return Framing::kSetup;
  if (first == kMuxPaxos) {
    paxos_bytes.assign(payload.begin() + 1, payload.end());
    return Framing::kPaxos;
  }
  // Raw (unframed) PaxosMsg bytes.
  paxos_bytes = payload;
  return Framing::kPaxos;
}

/// Replayed state of one process's Paxos run.
struct Replay {
  explicit Replay(std::size_t n) : n(n) {}

  std::size_t n;
  /// The process's acceptor, advanced by the PROMISE/ACCEPTED it sends.
  PaxosAcceptor acceptor;
  /// Verified receipts: (kind, ballot) → origin → message.
  std::map<std::pair<PaxosKind, std::uint64_t>, std::map<ProcessId, PaxosMsg>>
      received;
  // Our own sent ACCEPTs: ballot → value.
  std::map<std::uint64_t, Bytes> sent_accepts;

  /// The `kind` message for `ballot` received from `origin`, if any.
  const PaxosMsg* receipt(PaxosKind kind, std::uint64_t ballot,
                          ProcessId origin) const {
    const auto it = received.find({kind, ballot});
    if (it == received.end()) return nullptr;
    const auto mit = it->second.find(origin);
    return mit == it->second.end() ? nullptr : &mit->second;
  }

  void ingest_receipt(ProcessId origin, const PaxosMsg& m) {
    if (m.kind == PaxosKind::kNack || m.kind == PaxosKind::kDecide) return;
    received[{m.kind, m.ballot}][origin] = m;
  }

  /// Check a message `owner` sends and advance the replayed state.
  bool ingest_send(ProcessId owner, const PaxosMsg& m, ProcessId dst) {
    const std::size_t quorum = majority(n);
    switch (m.kind) {
      case PaxosKind::kPrepare:
        return ballot_owner(m.ballot, n) == owner;

      case PaxosKind::kPromise:
      case PaxosKind::kAccepted: {
        // Replay the ballot owner's PREPARE (for a PROMISE) or ACCEPT (for
        // an ACCEPTED) through the acceptor the live processes run: the
        // send must be exactly its answer.
        const ProcessId proposer = ballot_owner(m.ballot, n);
        if (dst != proposer && dst != trusted::kToAll) return false;
        const PaxosMsg* request = receipt(m.kind == PaxosKind::kPromise
                                              ? PaxosKind::kPrepare
                                              : PaxosKind::kAccept,
                                          m.ballot, proposer);
        return request != nullptr && acceptor.answer(*request) == m;
      }

      case PaxosKind::kAccept: {
        if (ballot_owner(m.ballot, n) != owner) return false;
        if (!m.has_value) return false;
        // Ballot 0 is p1's fast ballot: its value is p1's own input.
        if (m.ballot != 0) {
          const auto pit = received.find({PaxosKind::kPromise, m.ballot});
          if (pit == received.end() || pit->second.size() < quorum) {
            return false;
          }
          ValueChoice choice{m.value};
          for (const auto& [origin, promise] : pit->second) {
            choice.offer(promise.has_value, promise.acc_ballot, promise.value);
          }
          if (choice.value != m.value) return false;
        }
        sent_accepts[m.ballot] = m.value;
        return true;
      }

      case PaxosKind::kDecide: {
        if (!m.has_value) return false;
        for (const auto& [key, origins] : received) {
          if (key.first != PaxosKind::kAccepted || origins.size() < quorum) {
            continue;
          }
          const auto sit = sent_accepts.find(key.second);
          if (sit != sent_accepts.end() && sit->second == m.value) return true;
        }
        return false;
      }

      case PaxosKind::kNack:
        return true;
    }
    return false;
  }
};

/// Process one history entry of `owner` into `replay`. Returns false if the
/// entry proves the history illegal.
bool ingest_entry(const crypto::KeyStore& keystore, ProcessId owner,
                  const HistoryEntry& e, Replay& replay) {
  const auto process_send = [&](ProcessId to, const Bytes& p) {
    Bytes paxos_bytes;
    switch (classify(p, paxos_bytes)) {
      case Framing::kSetup:
        return true;  // set-up values are arbitrary inputs
      case Framing::kMalformed:
        return false;
      case Framing::kPaxos:
        break;
    }
    const auto msg = PaxosMsg::decode(paxos_bytes);
    if (!msg.has_value()) return false;
    return replay.ingest_send(owner, *msg, to);
  };

  if (e.kind == HistoryEntry::Kind::kSent) {
    return process_send(e.peer, e.payload);
  }
  // kReceived: verify the receipt, then feed it to the replay.
  const auto receipt = Receipt::decode(e.payload);
  if (!receipt.has_value()) return false;
  if (!trusted::verify_receipt(keystore, e.peer, e.k, *receipt)) {
    return false;
  }
  // Only messages addressed to the owner (or broadcast) may influence it.
  if (receipt->dst != owner && receipt->dst != trusted::kToAll) return true;
  Bytes paxos_bytes;
  switch (classify(receipt->payload, paxos_bytes)) {
    case Framing::kSetup:
      return true;
    case Framing::kMalformed:
      return true;  // junk the origin sent; ignore, it cannot justify anything
    case Framing::kPaxos:
      break;
  }
  const auto msg = PaxosMsg::decode(paxos_bytes);
  if (msg.has_value()) replay.ingest_receipt(e.peer, *msg);
  return true;
}

/// Replayed state of one owner's history, committed exactly as far as the
/// transport's verified-prefix cache: `entries` always equals the transport's
/// prefix position (both advance only when a whole message is accepted, and
/// both stay put on any reject), so a resume needs no chain compare at all —
/// the transport already anchored prefix identity in receiver-stored bytes.
struct OwnerCache {
  std::size_t entries = 0;
  Replay replay{0};
};

}  // namespace

trusted::HistoryValidator paxos_validator(const crypto::KeyStore& keystore,
                                          std::size_t n) {
  return [&keystore, n, caches = std::map<ProcessId, OwnerCache>{}](
             const trusted::ValidatorCall& call) mutable -> bool {
    OwnerCache& c = caches.try_emplace(call.owner).first->second;
    if (call.prefix_entries != 0 && call.prefix_entries != c.entries) {
      // Lockstep violation — cannot happen through TrustedTransport, but a
      // resume from the wrong position would be unsound, so refuse.
      return false;
    }
    // Replay the suffix on a staged state: a reject must leave the committed
    // state exactly where the transport's cache stays (rollback together).
    // That includes the rebuild case (prefix_entries == 0, suffix = whole
    // history): the fresh Replay is staged too, so a rejected rebuild does
    // not wipe the committed position a later resume will name.
    Replay staged = call.prefix_entries == 0 ? Replay(n) : c.replay;
    for (std::size_t i = 0; i < call.suffix_len; ++i) {
      if (!ingest_entry(keystore, call.owner, call.suffix[i], staged)) {
        return false;
      }
    }
    // Finally, the message being sent right now. It is not part of the
    // history yet (it will arrive as a kSent entry of a later suffix), so
    // replay it as a synthetic sent entry on a second scratch copy that is
    // never committed — one code path for "entry in history" and "entry
    // being sent".
    Replay scratch = staged;
    HistoryEntry current;
    current.kind = HistoryEntry::Kind::kSent;
    current.peer = call.dst;
    current.payload = *call.payload;
    if (!ingest_entry(keystore, call.owner, current, scratch)) return false;
    c.replay = std::move(staged);
    c.entries = call.prefix_entries + call.suffix_len;
    return true;
  };
}

}  // namespace mnm::core
