#include "src/kv/state_machine.hpp"

#include <algorithm>
#include <utility>

#include "src/txn/record.hpp"
#include "src/util/serde.hpp"

namespace mnm::kv {

namespace {

/// Counter sections are fixed runs of u64s, written iff one is non-zero.
void put_counters(util::Writer& w, Section tag,
                  std::initializer_list<std::uint64_t> counters) {
  put_section(w, tag, [&] {
    if (std::all_of(counters.begin(), counters.end(),
                    [](std::uint64_t c) { return c == 0; })) {
      return;
    }
    for (const std::uint64_t c : counters) w.u64(c);
  });
}

/// Inverse of put_counters: an absent section reads as all zero; a present
/// one must hold exactly the counters, not all zero.
bool get_counters(util::ByteView body,
                  std::initializer_list<std::uint64_t*> counters) {
  if (body.empty()) return true;
  if (body.size() != 8 * counters.size()) return false;
  util::Reader r(body);
  bool any = false;
  for (std::uint64_t* c : counters) any |= (*c = r.u64()) != 0;
  return any;
}

}  // namespace

void StateMachine::configure_partition(std::uint32_t group,
                                       const ShardTable& initial) {
  st_.group = group;
  st_.cfg_epoch = initial.epoch;
  st_.owned.assign(initial.buckets.size(), 0);
  for (std::size_t i = 0; i < initial.buckets.size(); ++i) {
    if (initial.buckets[i] == group) st_.owned[i] = 1;
  }
}

std::size_t StateMachine::owned_buckets() const {
  return static_cast<std::size_t>(
      std::count(st_.owned.begin(), st_.owned.end(), 1));
}

bool StateMachine::resize_owned(std::uint32_t table_buckets) {
  std::vector<std::uint8_t>& owned = st_.owned;
  if (owned.empty() || table_buckets < owned.size()) return false;
  std::size_t b = owned.size();
  while (b < table_buckets) b *= 2;  // routing-preserving doubling only
  if (b != table_buckets) return false;
  while (owned.size() < table_buckets) {
    const std::size_t half = owned.size();
    owned.resize(2 * half);
    std::copy_n(owned.begin(), half, owned.begin() + half);
  }
  return true;
}

SessionRecord& StateMachine::session(ClientId c) {
  SessionRecord& s = st_.sessions[c];
  s.client = c;
  return s;
}

bool StateMachine::verify_signed(const SignedCommand& sc) const {
  if (!sc.has_sig) return false;
  // The claimed client id is attacker-controlled 64-bit input: past the
  // representable range the base+client mapping would wrap the 32-bit
  // signer space, letting a Byzantine replica claim a client whose mapped
  // identity is its *own* signer. Reject before mapping.
  if (!client_signer_representable(sc.cmd.client)) return false;
  // The signer must be the claimed client's own identity — a valid
  // signature under identity A on a command claiming client B is a hijack
  // attempt, not a misconfiguration.
  const crypto::ProcessId expected = client_signer_id(sc.cmd.client);
  if (sc.sig.signer != expected) return false;
  // Admin authority is allow-listed on top: a perfectly valid client
  // signature on a SEAL/INSTALL/PURGE is still forged unless that identity
  // was granted reconfiguration authority.
  if (is_admin(sc.cmd.op) &&
      admin_signers_.find(expected) == admin_signers_.end()) {
    return false;
  }
  // The signed bytes bind the shard group: a command signed for another
  // group's log — replayed here by a Byzantine member of both groups —
  // fails verification instead of advancing the victim's session.
  return keystore_->valid(command_signing_bytes(signing_group_, sc.body),
                          sc.sig);
}

void StateMachine::apply(Slot, util::ByteView command) {
  const std::optional<SignedCommand> sc = decode_signed_command(command);
  if (!sc.has_value()) {
    ++st_.malformed;  // no-op, deterministically, on every correct replica
    return;
  }
  if (keystore_ != nullptr && !verify_signed(*sc)) {
    // Forged: well-formed bytes that fail authentication. Rejected *before*
    // the session lookup — a forgery must never create a session nor
    // advance last_seq, or the victim's own retries would deduplicate
    // against the attacker's write. Deterministic no-op, mirroring the
    // malformed rule: never a throw out of apply.
    ++st_.forged;
    return;
  }
  const Command* c = &sc->cmd;
  SessionRecord& s = session(c->client);
  if (c->seq <= s.last_seq) {
    ++st_.duplicates;
    // Only the newest request's reply is cached. Re-deliver it for a
    // duplicate of exactly that seq — in the closed-loop session model that
    // is the only seq a client can still be waiting on. One more seq stays
    // answerable: the session's newest TxnPrepare keeps its outcome in the
    // prepare mark, which decision records never overwrite — a recovering
    // coordinator replaying its record stream re-reads that prepare's true
    // accept/refuse outcome even after later abort records advanced
    // last_seq on this shard (re-deriving it from kStaleDup alone would
    // mistake a refused prepare for an accepted one and partially commit).
    // Any *other* stale duplicate (seq < last_seq) must not observe someone
    // else's answer, so it gets an explicit kStaleDup marker instead.
    if (sink_) {
      Reply marker;
      if (c->seq == s.last_seq) {
        marker = s.reply;
      } else if (s.prepare_seq != 0 && c->seq == s.prepare_seq) {
        marker.status = s.prepare_status;
      } else {
        marker.status = Status::kStaleDup;
      }
      sink_(c->client, c->seq, marker);
    }
    return;
  }
  if (is_admin(c->op)) {
    s.reply = apply_admin(*c);
    s.last_seq = c->seq;
    ++st_.admin_applied;
    if (sink_) sink_(c->client, c->seq, s.reply);
    if (ownership_signal_ != nullptr && s.reply.status == Status::kOk) {
      ownership_signal_->bump();
    }
    return;
  }
  if (partitioned() && !owns_bucket(key_bucket(c->key))) {
    // Sealed or not-yet-installed bucket: bounce. The session is NOT
    // touched — the client re-routes and the same seq must apply fresh,
    // exactly once, at the owner.
    ++st_.bounces;
    if (sink_) {
      Reply bounce;
      bounce.status = Status::kWrongEpoch;
      sink_(c->client, c->seq, bounce);
    }
    return;
  }
  // Txn records are client ops: they count in ops_applied and advance the
  // session exactly like GET/PUT — that session advance is what makes a
  // coordinator's recovery replay re-deliver the original outcomes.
  s.reply = is_txn(c->op) ? apply_txn(*c) : apply_op(*c);
  s.last_seq = c->seq;
  if (c->op == Op::kTxnPrepare) {
    // Record the prepare mark. Every prepare outcome is a committed,
    // persistable status — kOk, kTxnConflict or kTxnAborted — so caching it
    // here is as safe as the reply cache it extends.
    s.prepare_seq = c->seq;
    s.prepare_status = s.reply.status;
  }
  ++st_.ops_applied;
  if (sink_) sink_(c->client, c->seq, s.reply);
}

Reply StateMachine::apply_op(const Command& c) {
  Reply r;
  // A plain write on a locked key is a conflict, committed immediately — the
  // same deterministic no-wait rule as a refused prepare. Reads are not
  // blocked: GET returns the committed value (buffered txn writes are
  // invisible until commit).
  if (c.op != Op::kGet && st_.locks.count(c.key) != 0) {
    ++st_.txn_conflicts;
    r.status = Status::kTxnConflict;
    return r;
  }
  std::map<Bytes, Bytes>& store = st_.store;
  switch (c.op) {
    case Op::kGet: {
      const auto it = store.find(c.key);
      if (it == store.end()) {
        r.status = Status::kNotFound;
      } else {
        r.value = it->second;
      }
      break;
    }
    case Op::kPut:
      store[c.key] = c.value;
      break;
    case Op::kDel:
      if (store.erase(c.key) == 0) r.status = Status::kNotFound;
      break;
    case Op::kCas: {
      const auto it = store.find(c.key);
      const Bytes& current = it == store.end() ? util::bottom() : it->second;
      if (current == c.expected) {
        store[c.key] = c.value;
      } else {
        r.status = Status::kCasMismatch;
        r.value = current;
      }
      break;
    }
    default:
      break;  // admin/txn ops never reach here (apply() dispatches them)
  }
  return r;
}

Reply StateMachine::apply_txn(const Command& c) {
  Reply r;
  const auto it = st_.locks.find(c.key);
  if (c.op == Op::kTxnPrepare) {
    const std::optional<txn::PrepareRecord> rec = txn::decode_prepare(c.value);
    if (!rec.has_value()) {
      // Undecodable payload: the transaction can never commit here, so the
      // deterministic answer is an abort outcome, cached like any reply.
      ++st_.txn_rejected;
      r.status = Status::kTxnAborted;
      return r;
    }
    LockRecord want{c.key, rec->txn, c.client,
                    static_cast<std::uint8_t>(rec->write), rec->value,
                    rec->has_expected,
                    rec->has_expected ? rec->expected : Bytes{}};
    if (it != st_.locks.end()) {
      // Our own lock again, byte-identical: a recovery replay re-driving the
      // prepare under a fresh seq (the cached-seq path never reaches here),
      // idempotent success. Anything else refuses now, never waits — a lock
      // held by another live transaction (acquisition order is log order,
      // identical on every replica), or the same (txn, owner) with a
      // different payload: a buggy or equivocating coordinator, whose held
      // buffered write must never be silently swapped.
      if (it->second == want) return r;
      ++st_.txn_conflicts;
      r.status = Status::kTxnConflict;
      return r;
    }
    if (rec->has_expected) {
      // Optimistic guard: the coordinator read this key before preparing;
      // if someone committed in between, the transfer would be a lost
      // update — refuse like a CAS miss, current value riding back.
      const auto sit = st_.store.find(c.key);
      const Bytes& current =
          sit == st_.store.end() ? util::bottom() : sit->second;
      if (current != rec->expected) {
        ++st_.txn_conflicts;
        r.status = Status::kTxnConflict;
        r.value = current;
        return r;
      }
    }
    st_.locks.emplace(c.key, std::move(want));
    ++st_.txn_prepared;
    return r;
  }
  const std::optional<txn::DecisionRecord> rec = txn::decode_decision(c.value);
  if (!rec.has_value()) {
    ++st_.txn_rejected;
    r.status = Status::kTxnAborted;
    return r;
  }
  if (it == st_.locks.end() || it->second.owner != c.client ||
      it->second.txn != rec->txn) {
    // Presumed abort: no matching lock means the prepare never landed here
    // (or an abort already released it). A commit cannot apply — a correct
    // coordinator only sends commit after every prepare returned kOk, so
    // honest runs never take this path. An abort is idempotent: absence of
    // a lock IS the aborted state.
    ++st_.txn_orphans;
    if (c.op == Op::kTxnCommit) r.status = Status::kTxnAborted;
    return r;
  }
  if (c.op == Op::kTxnCommit) {
    if (it->second.write == static_cast<std::uint8_t>(txn::WriteKind::kDel)) {
      st_.store.erase(c.key);
    } else {
      st_.store[c.key] = it->second.value;
    }
    ++st_.txn_committed;
  } else {
    ++st_.txn_aborted;
  }
  st_.locks.erase(it);
  return r;
}

Reply StateMachine::apply_admin(const Command& c) {
  Reply rejected;
  rejected.status = Status::kWrongEpoch;
  // Every admin payload names a table geometry at an epoch; a stale epoch
  // or an unreachable geometry rejects deterministically.
  std::optional<RangeSnapshot> snap;
  if (c.op == Op::kInstall) {
    snap = decode_range_snapshot(c.value);
  } else if (std::optional<RangeSpec> spec = decode_range_spec(c.value)) {
    snap.emplace().spec = *std::move(spec);
  }
  if (!partitioned() || !snap.has_value() ||
      snap->spec.epoch < st_.cfg_epoch ||
      !resize_owned(snap->spec.table_buckets)) {
    ++st_.admin_rejected;
    return rejected;
  }
  st_.cfg_epoch = snap->spec.epoch;
  const std::vector<std::uint32_t>& buckets = snap->spec.buckets;
  if (c.op == Op::kSeal) {
    for (const std::uint32_t b : buckets) st_.owned[b] = 0;
  } else if (c.op == Op::kInstall) {
    for (auto& [k, v] : snap->pairs) st_.store[k] = std::move(v);
    st_.keys_imported += snap->pairs.size();
    // Merge the drained sessions by max seq: the machine holding the newest
    // seq for a client also holds the only reply that client can still be
    // waiting on. This is what lets a retry that straddles the epoch flip
    // (applied at the source pre-seal, re-sent here) hit the duplicate path
    // instead of applying twice. Prepare marks merge by the same monotone
    // rule, on their own seq.
    for (SessionRecord& rec : snap->sessions) {
      SessionRecord& s = session(rec.client);
      if (rec.last_seq > s.last_seq) {
        s.last_seq = rec.last_seq;
        s.reply = std::move(rec.reply);
      }
      if (rec.prepare_seq > s.prepare_seq) {
        s.prepare_seq = rec.prepare_seq;
        s.prepare_status = rec.prepare_status;
      }
    }
    // Locks migrate with their buckets: a transaction prepared before the
    // split finds its lock here when the commit/abort record re-routes, so
    // it still decides exactly once.
    for (const LockRecord& l : snap->locks) st_.locks[l.key] = l;
    for (const std::uint32_t b : buckets) st_.owned[b] = 1;
  } else {  // kPurge
    std::vector<std::uint8_t> drop(st_.owned.size(), 0);
    for (const std::uint32_t b : buckets) drop[b] = 1;
    const auto dropped = [&](const auto& entry) {
      return drop[key_bucket(entry.first)] != 0;
    };
    st_.keys_purged += std::erase_if(st_.store, dropped);
    // Sealed-away locks were drained with the range and now live at the
    // destination — drop the local copies with their pairs.
    std::erase_if(st_.locks, dropped);
  }
  return Reply{};
}

Bytes StateMachine::export_range(util::ByteView request) const {
  const std::optional<RangeSpec> spec = decode_range_spec(request);
  // Serve only once the seal for this epoch has applied here: the epoch has
  // been reached, the geometry matches, and every listed bucket is sealed
  // away — otherwise the drain would miss in-flight pre-seal ops.
  if (!partitioned() || !spec.has_value() || st_.cfg_epoch < spec->epoch ||
      spec->table_buckets != st_.owned.size()) {
    return {};
  }
  std::vector<std::uint8_t> take(st_.owned.size(), 0);
  for (const std::uint32_t b : spec->buckets) {
    if (st_.owned[b] != 0) return {};
    take[b] = 1;
  }
  RangeSnapshot snap;
  snap.spec = *spec;
  for (const auto& [k, v] : st_.store) {
    if (take[key_bucket(k)] != 0) snap.pairs.emplace_back(k, v);
  }
  // The whole session table travels, prepare marks included: a coordinator
  // whose prepare landed pre-seal can crash and replay it at the new owner
  // and still read the original outcome.
  for (const auto& [client, s] : st_.sessions) snap.sessions.push_back(s);
  for (const auto& [k, l] : st_.locks) {
    if (take[key_bucket(k)] != 0) snap.locks.push_back(l);
  }
  return encode_range_snapshot(snap);
}

void StateMachine::encode_state(util::Writer& w) const {
  put_section(w, kPairsSection, [&] {
    for (const auto& [k, v] : st_.store) w.bytes(k).bytes(v);
  });
  put_section(w, kSessionsSection, [&] {
    for (const auto& [client, s] : st_.sessions) put_session(w, s);
  });
  put_section(w, kLocksSection, [&] {
    for (const auto& [k, l] : st_.locks) put_lock(w, l);
  });
  put_section(w, kPartitionSection, [&] {
    if (partitioned()) w.u32(st_.group).u64(st_.cfg_epoch).bytes(st_.owned);
  });
  put_counters(w, kAppliedSection, {st_.ops_applied});
}

std::uint64_t StateMachine::store_hash() const {
  util::Writer w(256);
  encode_state(w);
  return util::fnv1a(util::kFnvBasis, w.data());
}

Bytes StateMachine::snapshot() const {
  util::Writer w(256);
  encode_state(w);
  const State& s = st_;
  put_counters(w, kStatsSection,
               {s.duplicates, s.malformed, s.forged, s.admin_applied,
                s.bounces, s.admin_rejected, s.keys_imported, s.keys_purged,
                s.txn_prepared, s.txn_committed, s.txn_aborted,
                s.txn_conflicts, s.txn_orphans, s.txn_rejected});
  return std::move(w.checksum()).take();
}

bool StateMachine::restore(util::ByteView raw) {
  const std::optional<Sections> sec = split_sections(
      raw, {kPairsSection, kSessionsSection, kLocksSection, kPartitionSection,
            kAppliedSection, kStatsSection});
  RangeSnapshot records;
  if (!sec.has_value() || !get_records(*sec, records)) return false;
  State s;
  if (!(*sec)[kPartitionSection].empty()) {
    try {
      util::Reader r((*sec)[kPartitionSection]);
      s.group = r.u32();
      s.cfg_epoch = r.u64();
      s.owned = r.bytes();
      r.expect_end();
    } catch (const util::SerdeError&) {
      return false;
    }
    if (s.owned.empty() || s.owned.size() > kMaxTableBuckets ||
        std::any_of(s.owned.begin(), s.owned.end(),
                    [](std::uint8_t o) { return o > 1; })) {
      return false;
    }
  }
  if (!get_counters((*sec)[kAppliedSection], {&s.ops_applied}) ||
      !get_counters((*sec)[kStatsSection],
                    {&s.duplicates, &s.malformed, &s.forged, &s.admin_applied,
                     &s.bounces, &s.admin_rejected, &s.keys_imported,
                     &s.keys_purged, &s.txn_prepared, &s.txn_committed,
                     &s.txn_aborted, &s.txn_conflicts, &s.txn_orphans,
                     &s.txn_rejected})) {
    return false;
  }
  for (auto& [k, v] : records.pairs) {
    s.store.emplace_hint(s.store.end(), std::move(k), std::move(v));
  }
  for (SessionRecord& rec : records.sessions) {
    s.sessions.emplace_hint(s.sessions.end(), rec.client, std::move(rec));
  }
  for (LockRecord& l : records.locks) {
    s.locks.emplace_hint(s.locks.end(), l.key, std::move(l));
  }
  st_ = std::move(s);
  return true;
}

std::uint64_t StateMachine::last_seq(ClientId c) const {
  const auto it = st_.sessions.find(c);
  return it == st_.sessions.end() ? 0 : it->second.last_seq;
}

}  // namespace mnm::kv
