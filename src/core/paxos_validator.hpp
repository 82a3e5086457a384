// Paxos protocol validator for trusted histories.
//
// Robust Backup (§4.1) needs receivers to check "whether a received message
// is consistent with the protocol" given the sender's full history. This
// validator replays the sender's history against the Paxos state machine and
// rejects any send a correct Paxos process could not have produced. It
// judges with paxos.*'s own rules — the acceptor the live processes run,
// the ballot rule and the value-choice rule — so the check cannot drift
// from the protocol it checks:
//
//  * PROMISE(b) / ACCEPTED(b) require an earlier verified receipt of
//    PREPARE(b) / ACCEPT(b, v) from b's owner, and must be exactly the
//    replayed acceptor's answer to it (b ≥ the promised ballot; a PROMISE
//    reports the accepted pair);
//  * PREPARE/ACCEPT(b) must use a ballot owned by the sender; ACCEPT(b, v)
//    (b > 0) requires receipts of a majority of PROMISE(b) from distinct
//    processes and v to be the value of the highest-ballot promise that
//    carried one (the value-choice rule); ballot 0 is p1's implicit
//    phase-1 fast ballot, whose value is the sender's own input and thus
//    unconstrained;
//  * DECIDE(v) requires a majority of ACCEPTED(b) receipts for a ballot b at
//    which the sender itself sent ACCEPT(b, v).
//
// Receipts are verified cryptographically (verify_receipt), so a Byzantine
// process cannot invent justifying evidence; it can only withhold messages —
// crash behaviour, which the underlying crash-tolerant Paxos already
// handles. This is the failure translation of Clement et al. made
// executable.
//
// Payload framing: payloads tagged kMuxPaxos (or raw, untagged PaxosMsg
// bytes) are validated; kMuxSetup payloads are Preferential Paxos set-up
// values, which carry arbitrary inputs and are always protocol-legal.

#pragma once

#include "src/core/trusted_messaging.hpp"

namespace mnm::core {

/// Build a HistoryValidator enforcing Paxos semantics for an n-process
/// system. `keystore` must outlive the validator.
trusted::HistoryValidator paxos_validator(const crypto::KeyStore& keystore,
                                          std::size_t n);

}  // namespace mnm::core
