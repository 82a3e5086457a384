// kv::Workload — seeded, deterministic closed-loop YCSB-style load.
//
// M concurrent clients, each a coroutine driving one operation at a time
// through kv::Router (issue → await committed reply → next). Operation
// mixes follow the YCSB core workloads:
//
//   mix A  update-heavy   50% read / 50% write
//   mix B  read-mostly    95% read /  5% write
//   mix C  read-only     100% read
//
// with the write share split 80% PUT / 10% CAS / 10% DEL so all four ops
// exercise the log. Key popularity is uniform or zipfian (the YCSB
// generator at theta kKeyZipfTheta) over a fixed key space. Every choice
// flows from one sim::Rng fork per client, so a (seed, config) pair
// reproduces the identical operation stream — the determinism suite pins
// whole sharded runs on that.
//
// Client identity is the Router's concern: each register_client() session
// owns a crypto::Signer in signed-command mode, and the wire every
// operation travels on carries that session's signature. The workload
// itself never sees keys or signatures — it drives Commands, the Router
// authenticates them.
//
// Transactional mix (YCSB+T-style, txn_fraction > 0): a fraction of each
// client's operation slots run a bank transfer through txn::Coordinator
// instead of a plain op — read `txn_accounts` distinct accounts, debit the
// first, credit the rest, with optimistic guards pinning each prepare to the
// value read. Accounts live in their own "acct-<i>" key space (disjoint from
// the plain "key-<i>" space, so plain writes can never corrupt balances) and
// every account starts absent ⇒ balance 0 — committed transfers conserve
// Σ balances == 0, the harness's atomicity invariant. Account popularity has
// its own zipfian knob: contention (conflicting prepares → aborts) rises
// with txn_zipf_theta, as perf_guards_test's transaction rows pin. A
// scripted coordinator crash (txn_crash_*) stops one chosen transaction dead
// after N completed records, pauses, then recovers through the presumed-abort
// replay — all on the deterministic clock, so crash runs fingerprint too.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/common.hpp"
#include "src/kv/router.hpp"
#include "src/sim/rng.hpp"
#include "src/txn/coordinator.hpp"

namespace mnm::kv {

enum class Mix : std::uint8_t { kA, kB, kC };
enum class KeyDist : std::uint8_t { kUniform, kZipfian };

/// Read share of the mix: 0.5 / 0.95 / 1.0.
double read_fraction(Mix mix);

/// YCSB-style zipfian generator over [0, n): item 0 most popular.
class ZipfGenerator {
 public:
  ZipfGenerator(std::size_t n, double theta);
  std::size_t next(sim::Rng& rng);

 private:
  std::size_t n_;
  double theta_, alpha_, zetan_, eta_;
};

/// Key popularity skew under KeyDist::kZipfian (YCSB's default).
inline constexpr double kKeyZipfTheta = 0.99;

struct WorkloadConfig {
  std::size_t clients = 8;
  std::size_t ops_per_client = 16;
  Mix mix = Mix::kA;
  KeyDist dist = KeyDist::kUniform;
  std::size_t keys = 64;  // key-space size

  // Transactional mix (see file comment). 0 keeps the plain workload
  // byte-identical — no extra rng draws, no txn state anywhere.
  double txn_fraction = 0.0;   // share of op slots that run a transfer
  std::size_t txn_accounts = 2;  // accounts touched per transfer (≥ 2)
  std::size_t accounts = 64;     // "acct-<i>" key-space size
  /// Account popularity: 0 = uniform, else zipfian with this theta — the
  /// contention knob (hot accounts ⇒ conflicting prepares ⇒ aborts).
  double txn_zipf_theta = 0.0;
  /// Scripted coordinator crash: client `txn_crash_client` (1-based router
  /// id; 0 = never) stops its `txn_crash_txn`-th transaction after
  /// `txn_crash_records` completed records, sleeps `txn_crash_pause`, then
  /// recovers via the presumed-abort replay.
  ClientId txn_crash_client = 0;
  std::size_t txn_crash_txn = 1;
  std::size_t txn_crash_records = 0;
  sim::Time txn_crash_pause = 64;
  /// Force the crash transaction's *last* prepare to be refused: a separate
  /// blocker session pre-locks that key under a foreign txn id just before
  /// the crash attempt, and releases it after recovery. This pins the
  /// abort-side replay — prepares accepted, one refused, abort records
  /// racing the crash — the window where recovery must re-read the refusal
  /// from the participant's prepare mark rather than guess from kStaleDup.
  bool txn_crash_conflict = false;
};

struct WorkloadStats {
  std::uint64_t ops = 0;  // completed client operations
  std::uint64_t reads = 0, puts = 0, dels = 0, cas_ops = 0;
  std::uint64_t not_found = 0, cas_mismatch = 0;
  sim::Time last_reply_at = 0;
  /// Issue → committed-reply latency of every completed op, completion
  /// order (unsorted).
  std::vector<sim::Time> latencies;

  // Transactional mix only (all zero otherwise).
  std::uint64_t txns = 0;         // transfers driven to a final outcome
  std::uint64_t txn_commits = 0;  // committed everywhere
  std::uint64_t txn_aborts = 0;   // aborted everywhere (conflict/guard miss)
  std::uint64_t txn_recoveries = 0;  // crashed coordinators recovered
  /// Start → decision latency of every *committed* transfer (crash pause
  /// included for the recovered one), completion order.
  std::vector<sim::Time> txn_commit_latencies;

  /// Completed operations per 1000 sim-time units — the aggregate
  /// throughput sharding is supposed to scale.
  double ops_per_kdelay() const {
    return last_reply_at > 0
               ? 1000.0 * static_cast<double>(ops) /
                     static_cast<double>(last_reply_at)
               : 0.0;
  }
};

class Workload {
 public:
  /// Registers `config.clients` sessions with the router; every client's
  /// operation stream derives from `seed`. Throws std::invalid_argument for
  /// an empty key space or, with transfers on, for txn_accounts outside
  /// [2, accounts] or txn_zipf_theta outside [0, 1).
  Workload(sim::Executor& exec, Router& router, WorkloadConfig config,
           std::uint64_t seed);

  /// Spawn every client loop. Call once, after the shard replicas started.
  void start();

  /// Every client completed its full operation count.
  bool done() const { return finished_ == clients_.size(); }

  const WorkloadStats& stats() const { return stats_; }

 private:
  struct Client {
    ClientId id = 0;
    sim::Rng rng{0};
    /// Last value this client observed per key index (reads and writes) —
    /// seeds CAS expectations so both success and mismatch paths occur.
    std::map<std::size_t, Bytes> seen;
    /// Transfers started by this client — feeds the txn id and the scripted
    /// crash ordinal.
    std::uint64_t txns_started = 0;
  };

  static sim::Task<void> client_loop(Workload* self, std::size_t idx);
  /// One bank transfer end to end: reads, 2PC, and (for the scripted crash
  /// victim) the crash + recovery.
  static sim::Task<void> run_txn(Workload* self, Client& c);
  std::size_t next_key(Client& c);
  std::size_t next_account(Client& c);
  Command next_op(Client& c);
  void record(const Command& cmd, const Reply& reply, sim::Time issued_at);

  sim::Executor* exec_;
  Router* router_;
  WorkloadConfig config_;
  ZipfGenerator zipf_;
  std::optional<ZipfGenerator> txn_zipf_;  // txn_zipf_theta > 0 only
  std::optional<txn::Coordinator> coordinator_;  // txn_fraction > 0 only
  std::vector<Client> clients_;
  std::size_t finished_ = 0;
  WorkloadStats stats_;
  bool started_ = false;
  /// Lazily-registered session for txn_crash_conflict's planted lock —
  /// separate from every workload client so the conflict is a genuinely
  /// foreign transaction.
  ClientId blocker_ = 0;
};

}  // namespace mnm::kv
