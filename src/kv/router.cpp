#include "src/kv/router.hpp"

#include <algorithm>
#include <cassert>

#include "src/sim/select.hpp"

namespace mnm::kv {

Router::Router(sim::Executor& exec, core::Omega& omega, ShardMap map,
               std::vector<ShardBackend> shards, RouterConfig config,
               reconfig::TableView* view)
    : exec_(&exec),
      omega_(&omega),
      map_(map),
      view_(view),
      shards_(std::move(shards)),
      config_(config),
      flush_armed_(shards_.size(), 0),
      shard_latency_(shards_.size(), 0) {
  // Static routing needs exactly one backend per shard; live routing only
  // needs every group the table can ever name to have a backend (split
  // targets exist from the start, idle until their first install).
  assert((view_ != nullptr ? map_.shards() <= shards_.size()
                           : map_.shards() == shards_.size()) &&
         "kv::Router: one backend per shard");
  config_.retry_timeout = std::max<sim::Time>(1, config_.retry_timeout);
  config_.retry_timeout_cap =
      std::max(config_.retry_timeout, config_.retry_timeout_cap);
  for (ShardBackend& b : shards_) {
    for (StateMachine* sm : b.machines) {
      if (sm == nullptr) continue;
      sm->set_reply_sink([this](ClientId c, std::uint64_t seq, const Reply& r) {
        deliver(c, seq, r);
      });
    }
  }
  if (view_ != nullptr) {
    for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
      ownership_.emplace_back(exec);
    }
  }
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    for (StateMachine* sm : shards_[shard].machines) arm_machine(sm, shard);
  }
}

void Router::arm_machine(StateMachine* sm, std::size_t shard) {
  if (sm == nullptr) return;
  if (!ownership_.empty()) sm->set_ownership_signal(&ownership_[shard]);
  if (config_.keystore == nullptr) return;
  sm->set_keystore(config_.keystore, static_cast<std::uint32_t>(shard));
  for (const crypto::ProcessId id : admin_signer_ids_) {
    sm->allow_admin_signer(id);
  }
}

Bytes Router::encode_wire(const ClientSession& s, const Command& cmd,
                          std::size_t shard) const {
  Bytes body = encode_command(cmd);
  if (config_.keystore == nullptr) return body;  // unsigned mode
  // The signature binds the target shard's log: a Byzantine member of
  // every group must not be able to replay this wire into another group.
  // Re-routes (bounce, post-timeout table flip) re-sign for the new shard.
  const crypto::Signature sig = s.signer->sign(
      command_signing_bytes(static_cast<std::uint32_t>(shard), body));
  return encode_signed_command(body, sig);
}

void Router::rebind(std::size_t shard, ProcessId p, smr::Replica* replica,
                    StateMachine* machine) {
  if (shard >= shards_.size()) return;
  ShardBackend& b = shards_[shard];
  if (p < 1 || p > b.replicas.size()) return;
  b.replicas[p - 1] = replica;
  b.machines[p - 1] = machine;
  if (machine != nullptr) {
    machine->set_reply_sink(
        [this](ClientId c, std::uint64_t seq, const Reply& r) {
          deliver(c, seq, r);
        });
    // A rejoiner's fresh machine must verify like the incarnation it
    // replaces, or forged commands would apply there and fork the shard.
    arm_machine(machine, shard);
  }
}

ClientId Router::register_client() {
  sessions_.emplace_back(*exec_);
  const ClientId id = static_cast<ClientId>(sessions_.size());
  if (config_.keystore != nullptr) {
    sessions_.back().signer =
        config_.keystore->register_process(client_signer_id(id));
  }
  return id;
}

ClientId Router::register_admin_client() {
  const ClientId id = register_client();
  sessions_.back().admin = true;
  if (config_.keystore != nullptr) {
    // Reconfiguration authority is per-identity: allow-list this session's
    // signer on every backend machine, present and future (arm_machine
    // replays the list on rebind).
    const crypto::ProcessId signer = client_signer_id(id);
    admin_signer_ids_.push_back(signer);
    for (ShardBackend& b : shards_) {
      for (StateMachine* sm : b.machines) {
        if (sm != nullptr) sm->allow_admin_signer(signer);
      }
    }
  }
  return id;
}

std::size_t Router::route(util::ByteView key) const {
  if (view_ != nullptr) return shard_of(view_->table(), key);
  return map_.shard_of(key);
}

void Router::deliver(ClientId client, std::uint64_t seq, const Reply& reply) {
  if (client == 0 || client > sessions_.size()) return;  // not one of ours
  ClientSession& s = sessions_[client - 1];
  // First replica to apply wins; replays of older seqs wake nobody.
  if (s.wait_seq != seq || s.reply.has_value()) return;
  if (reply.status == Status::kWrongEpoch && !s.admin) {
    // Not an outcome: the bucket is sealed or moved. Wake the retry loop to
    // re-route; the state machine recorded nothing, so the re-submission
    // still applies exactly once.
    if (!s.bounced) {
      s.bounced = true;
      s.signal.bump();
    }
    return;
  }
  s.reply = reply;
  s.signal.bump();
}

smr::Replica* ShardBackend::leader(const core::Omega& omega) const {
  const ProcessId lead = omega.leader();
  smr::Replica* r =
      (lead >= 1 && lead <= replicas.size()) ? replicas[lead - 1] : nullptr;
  if (r == nullptr) {
    for (smr::Replica* cand : replicas) {
      if (cand != nullptr) {
        r = cand;
        break;
      }
    }
  }
  return r;
}

bool ShardBackend::submit(const core::Omega& omega, const Bytes& wire) const {
  smr::Replica* lead = leader(omega);
  if (lead == nullptr) return false;
  if (!lead->log().all_propose()) {
    lead->submit(wire);
    return true;
  }
  for (smr::Replica* r : replicas) {
    if (r != nullptr) r->submit(wire);
  }
  return true;
}

void Router::submit(std::size_t shard, const Bytes& wire) {
  // A wholly faulty shard takes nothing: the retry loop re-asks Ω.
  if (!shards_[shard].submit(*omega_, wire)) return;
  if (!flush_armed_[shard]) {
    flush_armed_[shard] = 1;
    exec_->spawn(flush_soon(this, shard));
  }
}

sim::Task<void> Router::flush_soon(Router* self, std::size_t shard) {
  // One yield lets every same-instant submit for this shard join the open
  // batch before it becomes a slot payload.
  co_await self->exec_->yield();
  self->flush_armed_[shard] = 0;
  for (smr::Replica* r : self->shards_[shard].replicas) {
    if (r != nullptr) r->flush();
  }
}

sim::Time Router::retry_deadline(std::size_t shard, std::size_t attempt) const {
  sim::Time base = config_.retry_timeout;
  if (config_.adaptive_retry && shard_latency_[shard] > 0) {
    // 2× the slowest recent op + slack: one straggler commit must not be
    // mistaken for a lost command.
    base = 2 * shard_latency_[shard] + 2;
  }
  // Exponential backoff: retries must not storm a slow shard. Saturate at
  // the cap *before* the multiply — a long outage can push `attempt` far
  // past the doubling range of sim::Time, and the old `base *= 2` wrapped
  // to a tiny (even zero) deadline, turning backoff into a retry storm.
  for (std::size_t i = 0; i < attempt; ++i) {
    if (base >= config_.retry_timeout_cap / 2) {
      base = config_.retry_timeout_cap;
      break;
    }
    base *= 2;
  }
  // Never 0 — the constructor clamps the cap to ≥ retry_timeout ≥ 1, but a
  // zero deadline here is the same-instant retry storm this function exists
  // to prevent, so guard the degenerate case locally too.
  return std::max<sim::Time>(1, std::min(base, config_.retry_timeout_cap));
}

void Router::observe_latency(std::size_t shard, sim::Time sample) {
  // Decaying max: jumps to a new slow observation immediately, forgets an
  // old spike over ~8 replies. Integer arithmetic, sim-time only — the
  // deadline trajectory is as deterministic as everything else.
  const sim::Time decayed =
      shard_latency_[shard] - shard_latency_[shard] / 8;
  shard_latency_[shard] = std::max(sample, decayed);
}

sim::Task<Reply> Router::execute(ClientId client, Command cmd) {
  return run_op(client, std::move(cmd), std::nullopt, std::nullopt);
}

sim::Task<Reply> Router::execute_on(ClientId client, std::size_t group,
                                    Command cmd) {
  assert(group < shards_.size() && "kv::Router: unknown group");
  return run_op(client, std::move(cmd), group, std::nullopt);
}

sim::Task<Reply> Router::execute_replay(ClientId client, std::uint64_t seq,
                                        Command cmd) {
  assert(seq >= 1 && "kv::Router: replayed seqs are 1-based");
  return run_op(client, std::move(cmd), std::nullopt, seq);
}

sim::Task<Reply> Router::run_op(ClientId client, Command cmd,
                                std::optional<std::size_t> pinned,
                                std::optional<std::uint64_t> forced_seq) {
  assert(client >= 1 && client <= sessions_.size() &&
         "kv::Router: unknown client");
  ClientSession& s = sessions_[client - 1];
  assert(s.wait_seq == 0 && "kv::Router: one outstanding op per session");
  cmd.client = client;
  if (forced_seq.has_value()) {
    // Recovery replay: the seq was stamped by a previous (crashed) attempt.
    // Re-submitting it verbatim hits the session dedup if it applied, and
    // applies fresh if it never did — either way the outcome is the one the
    // original attempt was bound to. next_seq only moves forward.
    cmd.seq = *forced_seq;
    s.next_seq = std::max(s.next_seq, *forced_seq);
  } else {
    cmd.seq = ++s.next_seq;
  }
  std::size_t shard = pinned.has_value() ? *pinned : route(cmd.key);
  Bytes wire = encode_wire(s, cmd, shard);
  s.wait_seq = cmd.seq;
  s.reply.reset();
  s.bounced = false;
  std::size_t attempt = 0;
  sim::Time submitted_at = 0;
  // The table's and the shard's ownership versions at the last submission:
  // a parked op wakes once either moves past them, including a move that
  // landed before its bounce did.
  std::uint64_t table_seen = 0;
  std::uint64_t owner_seen = 0;
  const auto send = [&] {
    submitted_at = exec_->now();
    if (view_ != nullptr) {
      table_seen = view_->changed().version();
      owner_seen = ownership_[shard].version();
    }
    submit(shard, wire);
  };
  // Bounced off a bucket its route's group has not opened yet.
  bool parked = false;
  send();
  while (true) {
    // Snapshot before checking: a delivery landing between the check and
    // the await makes the select ready immediately (no lost wakeup).
    const std::uint64_t seen = s.signal.version();
    if (s.reply.has_value()) break;
    if (s.bounced) {
      // The key's bucket is sealed or already moved. Re-read the live
      // table; a changed route re-signs for the new shard's log and
      // re-submits immediately (same client, same seq — session dedup
      // keeps it exactly-once). An unchanged route means the destination
      // hasn't opened the bucket yet: park until the table changes or the
      // group applies its next SEAL/INSTALL/PURGE.
      s.bounced = false;
      ++bounces_;
      const std::size_t next = route(cmd.key);
      if (next != shard) {
        shard = next;
        wire = encode_wire(s, cmd, shard);
        send();
        continue;
      }
      parked = view_ != nullptr;
    }
    // Saturating add: near the end of a huge horizon (or with a huge cap)
    // now + deadline must not wrap past kTimeInfinity into the past. A
    // parked op is in no queue a crash could lose, so its deadline is only
    // the cap.
    const sim::Time deadline =
        parked ? config_.retry_timeout_cap : retry_deadline(shard, attempt);
    const sim::Time now = exec_->now();
    sim::Select sel(*exec_);
    sel.on(s.signal, seen)
        .until(now > sim::kTimeInfinity - deadline ? sim::kTimeInfinity
                                                   : now + deadline);
    if (parked) {
      sel.on(view_->changed(), table_seen).on(ownership_[shard], owner_seen);
    }
    const int which = co_await sel;
    if (s.reply.has_value()) break;
    if (s.bounced) continue;  // handled at the top of the loop
    if (which == sim::Select::kTimedOut) {
      // Same client id, same seq: the state machines' session dedup turns
      // a double commit into one apply + a cached-reply echo. Keyed ops
      // re-route first — the table may have flipped while the reply (or
      // its bounce) was lost to a crash — and a changed route re-signs for
      // the new shard's log (an unchanged one re-submits identical bytes).
      ++retries_;
      ++attempt;
    } else if (!parked) {
      continue;
    }
    parked = false;
    if (!pinned.has_value()) {
      const std::size_t next = route(cmd.key);
      if (next != shard) {
        shard = next;
        wire = encode_wire(s, cmd, shard);
      }
    }
    send();
  }
  // Feed the deadline model with this op's latency, measured from the last
  // submission (a retry that raced its predecessor's reply under-reports,
  // which the decaying max tolerates).
  observe_latency(shard, exec_->now() - submitted_at);
  s.wait_seq = 0;
  Reply reply = *std::move(s.reply);
  s.reply.reset();
  co_return reply;
}

}  // namespace mnm::kv
