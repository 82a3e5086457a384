// Unforgeable signatures for the M&M model.
//
// The paper (§3 "Signatures") assumes primitives sign(v) and sValid(p, v).
// We realize them with HMAC-SHA256 under per-process secret keys held by a
// `KeyStore` — a stand-in for a PKI. The enforcement story mirrors the
// model's trust assumptions:
//
//  * A process signs through its private `Signer`, which binds its identity
//    at construction. Byzantine strategies receive only their own Signer, so
//    they can produce arbitrary *claims* but not valid signatures of others.
//  * Anyone may verify (the KeyStore exposes verification), matching
//    sValid(p, v) being universally computable.
//
// HMAC with a per-signer secret key verified through the keystore is a MAC
// scheme with a trusted verifier rather than a true public-key signature,
// but inside one simulation it provides exactly the property the proofs use:
// no process can fabricate a value that verifies as signed by someone else.

#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "src/crypto/sha256.hpp"
#include "src/sim/rng.hpp"
#include "src/util/bytes.hpp"
#include "src/util/serde.hpp"

namespace mnm::crypto {

using ProcessId = std::uint32_t;

/// A detached signature: who signed plus the MAC over the canonical bytes.
struct Signature {
  ProcessId signer = 0;
  util::Bytes mac;  // 32 bytes when well-formed

  void encode(util::Writer& w) const {
    w.u32(signer);
    w.bytes(mac);
  }
  static Signature decode(util::Reader& r) {
    Signature s;
    s.signer = r.u32();
    s.mac = r.bytes();
    return s;
  }
  bool operator==(const Signature&) const = default;
};

/// HMAC-SHA256(key, msg).
Digest hmac_sha256(const util::Bytes& key, const util::Bytes& msg);

class KeyStore;

/// Identity-bound signing capability handed to exactly one process.
class Signer {
 public:
  ProcessId id() const { return id_; }
  Signature sign(const util::Bytes& msg) const;

 private:
  friend class KeyStore;
  Signer(const KeyStore* store, ProcessId id) : store_(store), id_(id) {}
  const KeyStore* store_;
  ProcessId id_;
};

/// Holds all per-process keys; issues Signers and verifies signatures.
class KeyStore {
 public:
  explicit KeyStore(std::uint64_t seed);

  /// Register a process and return its (only) signing capability.
  Signer register_process(ProcessId id);

  /// sValid(p, v): does `sig` verify as p's signature over `msg`?
  /// (p is sig.signer; callers usually also check sig.signer == expected.)
  bool valid(const util::Bytes& msg, const Signature& sig) const;

  /// Convenience: verify and check the expected signer in one call.
  bool valid_from(ProcessId expected, const util::Bytes& msg,
                  const Signature& sig) const {
    return sig.signer == expected && valid(msg, sig);
  }

  // Instrumentation: the harness reports these as RunReport::signatures and
  // RunReport::verifications.
  std::uint64_t signatures_made() const { return sign_count_; }
  std::uint64_t verifications_made() const { return verify_count_; }
  void reset_counters() { sign_count_ = verify_count_ = 0; }

 private:
  friend class Signer;
  util::Bytes key_of(ProcessId id) const;

  sim::Rng rng_;
  std::map<ProcessId, util::Bytes> keys_;
  mutable std::uint64_t sign_count_ = 0;
  mutable std::uint64_t verify_count_ = 0;
};

}  // namespace mnm::crypto
