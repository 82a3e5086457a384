// kv::Router — the client-facing front door of the sharded store.
//
// One Router per cluster (clients are simulated actors, not processes): it
// owns the client sessions, routes every operation to its key's shard, and
// replicates it through that shard's smr::Replica group. Two submission
// modes per shard, matching the engine model:
//
//  * Leader-driven (crash-model engines): enqueue at the Ω-trusted
//    replica's queue. If the leader dies with the command queued (or the
//    command's slot is lost), the reply never arrives; the client's retry —
//    same client id, same seq — re-routes to Ω's new output, and the
//    session dedup in kv::StateMachine makes the duplicate harmless.
//  * Fan-out (all-propose engines — Fast & Robust): every correct replica
//    of the shard enqueues the same payload in the same tick, so all of
//    them propose each slot with identical candidates, which is what the
//    memory-routed Byzantine engines require to decide at all.
//
// Submissions batch per shard per tick: the first submit in an instant arms
// a one-yield flush task, so every same-tick operation for a shard packs
// into the same slot payload (up to the replica's batch size) — the closed-
// loop workload's natural batching.
//
// execute() is the exactly-once retry loop: submit, wait on the session's
// reply signal with a deadline, re-submit the same (client, seq) wire on
// timeout (identical bytes while the route holds; a re-route re-signs in
// signed mode).
// Replies come back through the reply sinks of the shard's state machines
// (every replica applies every command); the first delivery per (client,
// seq) wins, later ones are ignored.
//
// The reply deadline is adaptive by default: a static `retry_timeout` tuned
// for a fast shard retry-storms on a slow one (a Byzantine-backed shard
// committing at ~80 time units against the old fixed 64 re-submitted every
// operation, every time). Each shard tracks a decaying max of observed
// op latencies; the deadline is 2× that plus slack, doubled per retry
// attempt (exponential backoff, capped). The static timeout remains the
// cold-start fallback and the fixed deadline when `adaptive_retry` is off.
//
// Reconfiguration (src/reconfig/): when the Router is built with a
// reconfig::TableView, routing consults the newest decided kv::ShardTable
// instead of the static ShardMap. A `Status::kWrongEpoch` reply is not an
// outcome — it means the key's bucket is sealed (mid-migration) or already
// moved: the session marks itself bounced, re-reads the live table, and
// re-submits the same (client, seq) command to the new owner — re-signed
// for that shard's log in signed mode, since signatures bind the target
// group. If the route hasn't
// changed yet (the destination has not opened the bucket), the op parks:
// it waits, re-submitting nothing, until the table view's changed() moves
// or the route's group applies a SEAL, INSTALL or PURGE — each group has
// an ownership VersionSignal its machines bump — so it re-submits the
// moment the bucket can open, and never polls a sealed bucket. A parked op
// sits in no queue a crash could lose, so its deadline is only the cap.
// A Router without a TableView builds no signal (no bucket ever moves).
// The Migrator's own admin sessions (register_admin_client) are exempt:
// for them kWrongEpoch is a real, resolved outcome (a stale seal/install).

#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "src/common.hpp"
#include "src/core/omega.hpp"
#include "src/kv/command.hpp"
#include "src/kv/shard.hpp"
#include "src/kv/state_machine.hpp"
#include "src/reconfig/table_view.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"
#include "src/smr/replica.hpp"

namespace mnm::kv {

/// One replica group — a shard, or the Migrator's config group, which has
/// no machines here — indexed by process (index p - 1; nullptr for
/// Byzantine processes, which run no correct replica).
struct ShardBackend {
  std::vector<smr::Replica*> replicas;
  std::vector<StateMachine*> machines;

  /// Ω's output, else the first correct replica (Ω never outputs a
  /// Byzantine process; the fallback covers scripted oracles naming a
  /// process without a replica); nullptr for a wholly faulty group.
  smr::Replica* leader(const core::Omega& omega) const;
  /// Hand `wire` to the group the way its engine needs: every correct
  /// replica in the same tick under an all-propose engine (see above), else
  /// the leader. False when no replica took it.
  bool submit(const core::Omega& omega, const Bytes& wire) const;
};

struct RouterConfig {
  /// Reply deadline before observing any commit latency (and the fixed
  /// per-attempt deadline when `adaptive_retry` is off — which must exceed
  /// the shard's typical commit latency or every operation retries).
  sim::Time retry_timeout = 64;
  /// Derive the deadline from the shard's observed op latency (decaying
  /// max): 2×observed + 2 slack, doubled per retry attempt.
  bool adaptive_retry = true;
  /// Upper bound on the backed-off deadline.
  sim::Time retry_timeout_cap = 4096;
  /// Signed-command mode: every session registers a client identity here
  /// (client_signer_id) and signs each canonical command; the Router
  /// enables verification on every backend machine (including rebound
  /// ones) and allow-lists admin sessions' identities for SEAL/INSTALL/
  /// PURGE. nullptr (the default) sends commands unsigned.
  crypto::KeyStore* keystore = nullptr;
};

class Router {
 public:
  /// Wires itself as the reply sink of every machine in `shards`. With a
  /// TableView the live table routes (and backends beyond the initial
  /// shard count are legal — they are split targets); without one, the
  /// static map routes.
  Router(sim::Executor& exec, core::Omega& omega, ShardMap map,
         std::vector<ShardBackend> shards, RouterConfig config,
         reconfig::TableView* view = nullptr);

  /// Allocate a client session (dense ids, 1-based).
  ClientId register_client();
  /// Allocate an admin session (the Migrator's): same exactly-once
  /// machinery, but kWrongEpoch replies resolve instead of bouncing.
  ClientId register_admin_client();

  std::size_t shards() const { return shards_.size(); }
  const ShardMap& shard_map() const { return map_; }
  const reconfig::TableView* view() const { return view_; }

  /// Stamp `cmd` with the client's next seq, route it by key, replicate it,
  /// and resolve with the committed reply. Retries (same seq) on timeout —
  /// exactly-once end to end thanks to the state machines' session dedup.
  sim::Task<Reply> execute(ClientId client, Command cmd);

  /// Like execute(), but pinned to one shard group regardless of the key —
  /// the Migrator's seal/install/purge ops carry their payload in `value`
  /// and must land in a specific group's log.
  sim::Task<Reply> execute_on(ClientId client, std::size_t group, Command cmd);

  /// Coordinator crash recovery (src/txn/): re-submit `cmd` under an
  /// explicit seq instead of the session's next one. Replaying a txn
  /// record's original (client, seq) makes the machines' session dedup
  /// re-deliver the reply the crashed attempt already earned — the replayed
  /// decision is pinned to the original — while a seq the crash never
  /// reached applies fresh. Advances next_seq past `seq`, so the session
  /// continues cleanly after recovery.
  sim::Task<Reply> execute_replay(ClientId client, std::uint64_t seq,
                                  Command cmd);

  /// Seqs stamped so far for a session — what a coordinator records before
  /// its first prepare so recovery can replay the identical wire.
  std::uint64_t next_seq(ClientId client) const {
    return sessions_[client - 1].next_seq;
  }

  /// The leader replica of a shard group (ShardBackend::leader) — the
  /// Migrator drains range snapshots from here.
  smr::Replica* leader_of(std::size_t shard) {
    return shard < shards_.size() ? shards_[shard].leader(*omega_) : nullptr;
  }

  /// Crash-and-rejoin: point shard `shard`'s backend slot for process `p`
  /// at a fresh replica incarnation (and wire its state machine's reply
  /// sink). The old incarnation stops delivering replies the moment its
  /// machine is unhooked from the backend — the caller keeps it alive but
  /// quarantined. Either pointer may be nullptr (process gone for good).
  void rebind(std::size_t shard, ProcessId p, smr::Replica* replica,
              StateMachine* machine);

  /// Client re-submissions issued after a reply deadline expired.
  std::uint64_t retries() const { return retries_; }
  /// kWrongEpoch replies that re-routed a client op (each is one sealed or
  /// moved bucket hit; the op still applies exactly once).
  std::uint64_t bounces() const { return bounces_; }

 private:
  struct ClientSession {
    explicit ClientSession(sim::Executor& exec) : signal(exec) {}
    std::uint64_t next_seq = 0;
    std::uint64_t wait_seq = 0;  // seq currently awaited; 0 = none
    std::optional<Reply> reply;
    bool bounced = false;  // kWrongEpoch seen for wait_seq; re-route needed
    bool admin = false;    // Migrator session: kWrongEpoch resolves
    /// Signed mode only: this session's signing capability under its
    /// client_signer_id identity.
    std::optional<crypto::Signer> signer;
    sim::VersionSignal signal;
  };

  void deliver(ClientId client, std::uint64_t seq, const Reply& reply);
  void submit(std::size_t shard, const Bytes& wire);
  static sim::Task<void> flush_soon(Router* self, std::size_t shard);
  /// The key's current shard: live table when a view is wired, static map
  /// otherwise.
  std::size_t route(util::ByteView key) const;
  /// The shared retry loop behind execute()/execute_on()/execute_replay().
  /// `pinned` fixes the shard (admin ops); otherwise the key re-routes on
  /// bounce/timeout. `forced_seq` replays an explicit seq (txn recovery)
  /// instead of stamping the next one.
  sim::Task<Reply> run_op(ClientId client, Command cmd,
                          std::optional<std::size_t> pinned,
                          std::optional<std::uint64_t> forced_seq);
  /// Per-attempt reply deadline (adaptive base, exponential backoff,
  /// saturating at retry_timeout_cap even for attempt counts that would
  /// overflow the doubling).
  sim::Time retry_deadline(std::size_t shard, std::size_t attempt) const;
  void observe_latency(std::size_t shard, sim::Time sample);
  /// Wire bytes for `cmd` headed to `shard`: signed form (canonical bytes
  /// + this session's signature bound to the shard's log) in signed mode,
  /// the plain encoding otherwise.
  Bytes encode_wire(const ClientSession& s, const Command& cmd,
                    std::size_t shard) const;
  /// Wire `sm` as shard `shard`'s machine: point it at the shard's
  /// ownership signal (live routing only) and enable signed-command
  /// verification (no-op without a keystore) — the keystore + signing group
  /// and the admin allow-list, replayed so machines created after
  /// register_admin_client (rejoin, split targets) still accept the
  /// Migrator.
  void arm_machine(StateMachine* sm, std::size_t shard);

  sim::Executor* exec_;
  core::Omega* omega_;
  ShardMap map_;
  reconfig::TableView* view_;
  std::vector<ShardBackend> shards_;
  RouterConfig config_;
  std::deque<ClientSession> sessions_;  // stable addresses; index = id - 1
  std::vector<crypto::ProcessId> admin_signer_ids_;  // signed mode only
  std::vector<std::uint8_t> flush_armed_;
  std::vector<sim::Time> shard_latency_;  // decaying max per shard
  /// Per shard, bumped by its machines' SEAL/INSTALL/PURGE; live routing
  /// only.
  std::deque<sim::VersionSignal> ownership_;
  std::uint64_t retries_ = 0;
  std::uint64_t bounces_ = 0;
};

}  // namespace mnm::kv
