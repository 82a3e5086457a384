// Experiment harness: builds a full M&M cluster, injects faults, runs to
// quiescence, and checks the paper's correctness properties (§3: uniform
// agreement / agreement, validity, termination).
//
// One Cluster = one configuration of
//   * an algorithm (the paper's three + baselines),
//   * n processes and m memories (mem::Memory or the verbs backend),
//   * a fault plan: crash times for processes/memories, Byzantine
//     strategies, and a partial-synchrony shape (GST + pre-GST delay),
//   * a mode: one consensus instance (the default), a replicated log (SMR)
//     or a sharded KV store.
// Every mode runs the algorithm's core::ConsensusEngine in consensus
// groups; single-shot mode is a one-slot group. The run produces a
// RunReport with per-process outcomes, delay counts, message and
// memory-operation counts, signature counts, and invariant verdicts.
//
// Everything is deterministic given the seed.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common.hpp"
#include "src/kv/workload.hpp"
#include "src/reconfig/change.hpp"
#include "src/sim/time.hpp"

namespace mnm::harness {

enum class Algorithm {
  kPaxos,                // message passing, 2 phases always (4 delays)
  kFastPaxos,            // message passing, p1 skips phase 1 (2 delays)
  kDiskPaxos,            // memory only, static permissions (4 delays)
  kProtectedMemoryPaxos, // memory + dynamic permissions (2 delays, n ≥ f+1)
  kAlignedPaxos,         // messages + memory, combined-majority resilience
  kRobustBackup,         // Byzantine: Robust Backup(Paxos), slow path only
  kFastRobust,           // Byzantine: Cheap Quorum + backup (2 delays)
};

const char* algorithm_name(Algorithm a);

/// How a Byzantine process misbehaves. Strategies act through the same
/// capability objects as correct processes (own signer, own permissions), so
/// they cannot do anything the model forbids.
enum class ByzantineStrategy {
  kSilent,             // participates in nothing
  kNebEquivocate,      // writes conflicting signed values into its own NEB
                       // slots on different memories (the attack Alg. 2 stops)
  kCqLeaderEquivocate, // as CQ leader: plants different signed values on
                       // different memories, then goes silent
  kGarbage,            // floods its regions and links with malformed bytes
  kForgeClientCommands, // KV mode, CQ leader: wins slot 0 with *well-formed*
                        // commands under a victim client's (client, seq) —
                        // the session-hijack attack client signing stops
};

struct FaultPlan {
  std::map<ProcessId, sim::Time> process_crashes;
  std::map<MemoryId, sim::Time> memory_crashes;
  std::map<ProcessId, ByzantineStrategy> byzantine;
  /// Crash-and-rejoin: processes listed here (which must also have a crash
  /// time, strictly earlier) restart at the given time with volatile state
  /// wiped — a fresh replica incarnation that recovers through snapshot +
  /// log catch-up from its peers. Message-based SMR/KV engines only
  /// (kPaxos / kFastPaxos): the other engines' memory views are shared by
  /// every incarnation of a process, so a crashed incarnation's coroutines
  /// could still act through them. The relevant snapshot_interval must be
  /// > 0.
  std::map<ProcessId, sim::Time> process_rejoins;

  /// Processes still down at the horizon — what resilience accounting (and
  /// the f < n/2 sanity checks) should count, which is crashes minus the
  /// crashes that later rejoin.
  std::size_t crashed_by_horizon() const {
    std::size_t n = process_crashes.size();
    for (const auto& [p, at] : process_rejoins) {
      const auto crash = process_crashes.find(p);
      if (crash != process_crashes.end() && at > crash->second) --n;
    }
    return n;
  }
  bool is_byzantine(ProcessId p) const { return byzantine.contains(p); }
  bool rejoins(ProcessId p) const { return process_rejoins.contains(p); }
};

/// Multi-slot (state-machine replication) mode: instead of one consensus
/// instance, every correct replica runs an smr::Replica over the chosen
/// algorithm's core::ConsensusEngine adapter, submits `commands` commands
/// (batched `batch` per slot, `window` slots in flight), and the run checks
/// SMR invariants: identical applied logs, in-order apply, termination.
/// Fault plans (crashes, Byzantine strategies) apply exactly as in
/// single-shot mode; Byzantine region attacks target slot 0's regions.
struct SmrConfig {
  bool enabled = false;
  std::size_t commands = 32;  // workload submitted per correct replica
  std::size_t batch = 4;      // commands packed per slot payload
  std::size_t window = 8;     // max in-flight slots
  /// Snapshot + log compaction cadence (smr::LogConfig::snapshot_interval):
  /// every replica snapshots its state machine and truncates applied slots
  /// every this-many applies, and serves snapshot + suffix catch-up to
  /// rejoining peers. 0 = off (required > 0 for process_rejoins).
  Slot snapshot_interval = 0;
};

/// One scheduled reconfiguration step (KV mode): at time `at`, propose
/// (kind, src, dst) into the config group and migrate the moved buckets.
/// Steps run serially in vector order — a step whose time has passed when
/// the previous migration finishes starts immediately.
struct ReconfigAction {
  sim::Time at = 0;
  reconfig::ChangeKind kind = reconfig::ChangeKind::kSplit;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

/// Sharded-KV mode: the key space is hash-partitioned across `shards`
/// independent consensus groups, each an smr::Replica group over the chosen
/// algorithm's engine — per-shard TransportMux sub + slot-hub namespace for
/// message traffic, per-shard "g<i>/"-prefixed slot regions on the shared
/// memories — with a kv::Router providing client-visible exactly-once
/// sessions and a kv::Workload driving `clients` closed-loop YCSB-style
/// clients through it. Fault plans apply exactly as in the other modes
/// (Byzantine region attacks target shard 0 / slot 0); the run checks
/// per-shard store/session agreement, session validity, and termination.
struct KvConfig {
  bool enabled = false;
  std::size_t shards = 2;
  std::size_t clients = 8;
  std::size_t ops_per_client = 16;
  kv::Mix mix = kv::Mix::kA;
  kv::KeyDist dist = kv::KeyDist::kUniform;
  std::size_t keys = 64;      // key-space size
  std::size_t batch = 4;      // commands packed per slot payload
  std::size_t window = 8;     // max in-flight slots per shard
  /// Client reply deadline before a (dedup-covered) re-submission: the
  /// cold-start value with adaptive retry on, the fixed deadline otherwise.
  sim::Time retry_timeout = 64;
  /// Derive the reply deadline from each shard's observed op latency with
  /// exponential backoff (kv::RouterConfig::adaptive_retry) instead of
  /// re-submitting on the fixed timeout above.
  bool adaptive_retry = true;
  /// Per-shard snapshot + log compaction cadence (see SmrConfig).
  Slot snapshot_interval = 0;
  /// Client-signed commands: every client (and the Migrator's admin
  /// session) signs each command under its own keystore identity, and
  /// every state machine verifies before the session lookup — forged
  /// commands (a Byzantine slot winner writing under a victim's session)
  /// no-op into RunReport::kv_forged. Off (the default) sends commands
  /// unsigned.
  bool sign_commands = false;
  /// Live reconfiguration plan (src/reconfig/). Non-empty ⇒ routing runs
  /// off a consensus-decided kv::ShardTable (epoch 0 = `shards` groups of
  /// ShardTable::initial), a dedicated config group (one extra consensus
  /// group on the next mux tag, "cfg/" region namespace) decides the
  /// scheduled changes, and a reconfig::Migrator live-migrates the moved
  /// buckets while the workload keeps running. Backends are built for
  /// every group any action activates, so split targets exist (idle) from
  /// the start. Empty ⇒ static sharding.
  std::vector<ReconfigAction> reconfig;

  /// Transactional mix (src/txn/, kv::WorkloadConfig txn knobs): > 0 runs
  /// bank transfers over 2PC for that share of op slots; 0 keeps the plain
  /// workload byte-identical. The crash knobs script one coordinator crash
  /// + presumed-abort recovery mid-run.
  double txn_fraction = 0.0;
  std::size_t txn_accounts = 2;
  std::size_t accounts = 64;
  double txn_zipf_theta = 0.0;
  kv::ClientId txn_crash_client = 0;  // 0 = no scripted crash
  std::size_t txn_crash_txn = 1;
  std::size_t txn_crash_records = 0;
  sim::Time txn_crash_pause = 64;
  /// Refuse the crash transaction's last prepare via a planted foreign
  /// lock (kv::WorkloadConfig::txn_crash_conflict) — pins the abort-side
  /// crash recovery.
  bool txn_crash_conflict = false;
};

struct ClusterConfig {
  Algorithm algo = Algorithm::kPaxos;
  std::size_t n = 3;
  std::size_t m = 3;
  std::uint64_t seed = 1;
  bool verbs_backend = false;  // run memories through the RDMA-like layer

  /// Partial synchrony: messages sent before `gst` take `pre_gst_delay`.
  sim::Time gst = 0;
  sim::Time pre_gst_delay = 1;

  /// Give every process the same input instead of distinct ones.
  bool identical_inputs = false;

  sim::Time horizon = 60000;
  sim::Time cq_timeout = 120;

  SmrConfig smr;
  KvConfig kv;

  FaultPlan faults;
};

struct ProcessReport {
  ProcessId id = 0;
  bool byzantine = false;
  sim::Time crashed_at = sim::kTimeInfinity;
  sim::Time rejoined_at = sim::kTimeInfinity;
  bool decided = false;
  std::string decision;
  /// Single-shot mode: the instance's local decision time (a process that
  /// learns the value before its own proposal returns reports the learning
  /// time). SMR/KV modes: the replica's last apply time.
  sim::Time decided_at = 0;
  /// Single-shot mode: the engine's Decision::fast — the process decided on
  /// its protocol's fast path (Fast Paxos's or PMP's 2-delay round, Fast &
  /// Robust's Cheap Quorum path). SMR mode: every applied slot of this
  /// replica was fast or a no-op.
  bool fast_path = false;

  /// SMR mode: the commands this replica applied, in apply order.
  std::vector<std::string> log;
};

struct RunReport {
  std::vector<ProcessReport> processes;

  // Invariants (computed over correct processes only).
  bool agreement = true;
  bool validity = true;
  bool termination = true;
  bool all_ok() const { return agreement && validity && termination; }

  std::optional<std::string> decided_value;
  /// Virtual time of the earliest decision = decision delay (proposals start
  /// at t = 0, one unit = one network delay). Single-shot mode takes every
  /// non-Byzantine process's decision, a process that decides and then
  /// crashes included; SMR and KV modes take slot 0's decision time at the
  /// correct replicas.
  sim::Time first_decision_delay = sim::kTimeInfinity;

  // Cost metrics, whole run. `mem_reads` counts per-slot detail (a batched
  // read of n slots adds n); `mem_read_batches` counts each read_many as one.
  std::uint64_t messages_sent = 0;
  std::uint64_t mem_reads = 0;
  std::uint64_t mem_read_batches = 0;
  std::uint64_t mem_writes = 0;
  std::uint64_t permission_changes = 0;
  std::uint64_t signatures = 0;
  std::uint64_t verifications = 0;
  /// Executor events processed by the whole run — the simulator's own cost
  /// metric (the quantity the event-driven waits minimize).
  std::uint64_t events = 0;

  // Byzantine wire path (Robust Backup / Fast & Robust only): t-send decode
  // accounting, summed over every correct process's trusted transport.
  // Suffix-only decode keeps decoded_per_delivery flat as histories grow —
  // skipped entries are the verified prefixes hopped over without
  // materializing a HistoryEntry.
  std::uint64_t tsend_deliveries = 0;
  std::uint64_t history_entries_decoded = 0;
  std::uint64_t history_entries_skipped = 0;
  double decoded_per_delivery = 0.0;

  // The replicated logs, SMR and KV modes alike: KV mode adds up its data
  // groups (the config group is not counted) and pools their latency
  // samples; each field's doc says how one group counts.
  /// Applied slots, commands and no-op slots of one correct replica per
  /// group: the longest log in SMR mode, the first replica that never
  /// rejoined in KV mode.
  Slot slots_applied = 0;
  std::uint64_t commands_applied = 0;
  std::uint64_t noop_slots = 0;
  /// Slots decided on the fast path. The fast path is proposer-local
  /// (learners decide via DECIDE), so each group counts its busiest correct
  /// replica, and KV mode sums that over its data shards.
  std::uint64_t fast_slots = 0;
  /// Commit latency (enqueue → local decide, sim-time) percentiles over
  /// the slots correct replicas proposed and won. A leader-mode group pools
  /// its replicas' samples; an all-propose group, whose replicas can all
  /// win one slot, contributes only its correct replica with the lowest
  /// commit p50 (ties: lowest id). p999 is the tail metric production
  /// scale cares about.
  sim::Time commit_p50 = 0;
  sim::Time commit_p99 = 0;
  sim::Time commit_p999 = 0;
  /// Queue wait (enqueue → propose) percentiles over every slot some correct
  /// replica proposed — how long commands sat behind the window before a
  /// consensus round even started.
  sim::Time queue_wait_p50 = 0;
  sim::Time queue_wait_p99 = 0;
  /// Window occupancy: launch-time open slots / window, as the
  /// fingerprint-exact integer sums and their ratio.
  std::uint64_t occupancy_slots = 0;
  std::uint64_t occupancy_limit = 0;
  double window_occupancy = 0.0;
  /// Executor events per applied slot — the pipelining-efficiency metric.
  double events_per_slot = 0.0;
  /// Recovery accounting (SMR/KV modes, zeros with snapshotting off),
  /// summed over every replica incarnation of every correct process:
  /// snapshots cut locally / installed from a peer during catch-up, log
  /// slots freed by compaction, and catch-up response bytes consumed.
  std::uint64_t snapshots_taken = 0;
  std::uint64_t snapshots_installed = 0;
  std::uint64_t slots_truncated = 0;
  std::uint64_t catchup_bytes = 0;
  /// Per-slot consensus state left at the end of the run: the most
  /// protocol instances or slot-hub subs any correct replica's engine holds
  /// in a data group. At most the window on the crash engines, which retire
  /// slots a window behind the applied prefix; the slot count on the
  /// Byzantine engines.
  std::size_t slot_state_held = 0;

  // KV mode only (config.kv.enabled). Shard/commit metrics above aggregate
  // over every shard's replicas; these add the client-visible layer.
  std::uint64_t kv_ops = 0;             // completed client operations
  std::uint64_t kv_reads = 0;
  std::uint64_t kv_writes = 0;          // PUT + DEL + CAS completions
  std::uint64_t kv_retries = 0;         // client re-submissions (dedup-covered)
  std::uint64_t kv_duplicates = 0;      // duplicate applies suppressed
  std::uint64_t kv_malformed = 0;       // undecodable commands applied as no-ops
  std::uint64_t kv_forged = 0;          // well-formed commands rejected by
                                        // signature verification (signing on)
  std::uint64_t kv_store_hash = 0;      // combined per-shard store/session hash
  /// Effective (deduplicated) operations applied per shard, shard order —
  /// the partitioning fingerprint.
  std::vector<std::uint64_t> kv_shard_ops;
  double kv_ops_per_kdelay = 0.0;
  /// Client-visible operation latency (issue → committed reply).
  sim::Time kv_op_p50 = 0;
  sim::Time kv_op_p99 = 0;
  sim::Time kv_op_p999 = 0;

  // Transactions (kv.txn_fraction > 0; all zero otherwise, except
  // kv_locks_held, which is checked — and zero — in every KV run).
  std::uint64_t kv_txns = 0;            // transfers driven to an outcome
  std::uint64_t kv_txn_commits = 0;     // committed everywhere
  std::uint64_t kv_txn_aborts = 0;      // aborted everywhere
  std::uint64_t kv_txn_conflicts = 0;   // kTxnConflict outcomes machines returned
  std::uint64_t kv_txn_recoveries = 0;  // crashed coordinators recovered
  /// Locks still held at the end of the run — non-zero on a terminated run
  /// means an undecided transaction leaked, and fails validity.
  std::uint64_t kv_locks_held = 0;
  /// Σ balances over the "acct-" key space (int64). Every committed
  /// transfer conserves it, so a terminated transactional run must end at
  /// exactly 0 — the cross-shard atomicity invariant; fails validity
  /// otherwise.
  std::int64_t kv_txn_balance = 0;
  sim::Time kv_txn_commit_p50 = 0;   // committed-transfer latency
  sim::Time kv_txn_commit_p999 = 0;

  // Reconfiguration (kv.reconfig non-empty; all zero otherwise).
  std::uint64_t reconfig_epoch = 0;       // final decided table epoch
  std::uint64_t reconfig_migrations = 0;  // changes fully migrated
  std::uint64_t reconfig_keys_moved = 0;  // pairs carried by INSTALLs
  std::uint64_t reconfig_proposals = 0;   // ConfigChange submissions
  /// kWrongEpoch bounces the router re-routed (each a client op that hit a
  /// sealed or moved bucket and still applied exactly once).
  std::uint64_t reconfig_bounces = 0;
  /// Virtual time each epoch flip reached the cluster view, epoch order —
  /// part of the reconfiguration determinism fingerprint.
  std::vector<sim::Time> reconfig_flip_times;

  std::string summary() const;
};

/// Build and run `config`. Single-shot mode (neither smr nor kv enabled)
/// runs a one-slot consensus group: every non-Byzantine process p proposes
/// "value-p" (or "value-all" with identical_inputs) for slot 0. Throws
/// std::invalid_argument on a fault plan naming an unknown process or
/// memory.
RunReport run_cluster(const ClusterConfig& config);

}  // namespace mnm::harness
