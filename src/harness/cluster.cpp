#include "src/harness/cluster.hpp"

#include <cassert>
#include <charconv>
#include <sstream>
#include <stdexcept>

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <tuple>

#include "src/core/aligned_paxos.hpp"
#include "src/core/cheap_quorum.hpp"
#include "src/core/disk_paxos.hpp"
#include "src/core/engine.hpp"
#include "src/core/fast_robust.hpp"
#include "src/core/nonequiv_broadcast.hpp"
#include "src/core/omega.hpp"
#include "src/core/paxos.hpp"
#include "src/core/protected_memory_paxos.hpp"
#include "src/core/robust_backup.hpp"
#include "src/core/transport.hpp"
#include "src/core/transport_mux.hpp"
#include "src/crypto/signature.hpp"
#include "src/harness/process_view.hpp"
#include "src/kv/router.hpp"
#include "src/kv/shard.hpp"
#include "src/kv/state_machine.hpp"
#include "src/kv/workload.hpp"
#include "src/mem/memory.hpp"
#include "src/net/network.hpp"
#include "src/reconfig/migrator.hpp"
#include "src/reconfig/table_machine.hpp"
#include "src/reconfig/table_view.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/rng.hpp"
#include "src/smr/replica.hpp"
#include "src/util/serde.hpp"
#include "src/verbs/verbs.hpp"

namespace mnm::harness {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kPaxos: return "Paxos (messages, 2-phase)";
    case Algorithm::kFastPaxos: return "Fast Paxos (messages, leader terms)";
    case Algorithm::kDiskPaxos: return "Disk Paxos (memory, static perms)";
    case Algorithm::kProtectedMemoryPaxos: return "Protected Memory Paxos";
    case Algorithm::kAlignedPaxos: return "Aligned Paxos";
    case Algorithm::kRobustBackup: return "Robust Backup(Paxos)";
    case Algorithm::kFastRobust: return "Fast & Robust";
  }
  return "?";
}

std::string RunReport::summary() const {
  std::ostringstream os;
  os << "decided=" << (decided_value ? *decided_value : "<none>")
     << " first_delay=" << (first_decision_delay == sim::kTimeInfinity
                                ? std::string("inf")
                                : std::to_string(first_decision_delay))
     << " agreement=" << agreement << " validity=" << validity
     << " termination=" << termination << " msgs=" << messages_sent
     << " reads=" << mem_reads << " read_batches=" << mem_read_batches
     << " writes=" << mem_writes
     << " perm_changes=" << permission_changes << " sigs=" << signatures
     << " events=" << events;
  if (tsend_deliveries > 0) {
    os << " tsend_deliveries=" << tsend_deliveries
       << " entries_decoded=" << history_entries_decoded
       << " entries_skipped=" << history_entries_skipped
       << " decoded/delivery=" << decoded_per_delivery;
  }
  if (slots_applied > 0) {
    os << " slots=" << slots_applied << " cmds=" << commands_applied
       << " noop=" << noop_slots << " fast=" << fast_slots
       << " p50=" << commit_p50 << " p99=" << commit_p99
       << " p999=" << commit_p999 << " qwait50=" << queue_wait_p50
       << " qwait99=" << queue_wait_p99 << " occ=" << window_occupancy
       << " events/slot=" << events_per_slot;
  }
  if (snapshots_taken > 0 || snapshots_installed > 0) {
    os << " snaps=" << snapshots_taken << "+" << snapshots_installed
       << " truncated=" << slots_truncated << " catchup_bytes=" << catchup_bytes;
  }
  if (kv_ops > 0) {
    os << " kv_ops=" << kv_ops << " kv_retries=" << kv_retries
       << " kv_dups=" << kv_duplicates;
    // Signed-mode-only counter: printed only when non-zero so legacy
    // summary strings (and the fingerprints pinning them) are unchanged.
    if (kv_forged > 0) os << " kv_forged=" << kv_forged;
    os << " kv_ops/kdelay=" << kv_ops_per_kdelay
       << " kv_op_p50=" << kv_op_p50 << " kv_op_p99=" << kv_op_p99
       << " kv_op_p999=" << kv_op_p999 << " kv_hash=" << kv_store_hash
       << " shard_ops=[";
    for (std::size_t i = 0; i < kv_shard_ops.size(); ++i) {
      os << (i > 0 ? "," : "") << kv_shard_ops[i];
    }
    os << "]";
  }
  // Transactional runs only — legacy summary strings are unchanged.
  if (kv_txns > 0) {
    os << " txns=" << kv_txns << " commits=" << kv_txn_commits
       << " aborts=" << kv_txn_aborts << " txn_conflicts=" << kv_txn_conflicts
       << " recoveries=" << kv_txn_recoveries << " balance=" << kv_txn_balance
       << " locks=" << kv_locks_held << " txn_p50=" << kv_txn_commit_p50
       << " txn_p999=" << kv_txn_commit_p999;
  }
  if (reconfig_epoch > 0 || reconfig_proposals > 0) {
    os << " epoch=" << reconfig_epoch
       << " migrations=" << reconfig_migrations
       << " keys_moved=" << reconfig_keys_moved
       << " bounces=" << reconfig_bounces
       << " proposals=" << reconfig_proposals << " flips=[";
    for (std::size_t i = 0; i < reconfig_flip_times.size(); ++i) {
      os << (i > 0 ? "," : "") << reconfig_flip_times[i];
    }
    os << "]";
  }
  return os.str();
}

namespace {

using core::Omega;

std::string input_of(const ClusterConfig& cfg, ProcessId p) {
  return cfg.identical_inputs ? "value-all" : "value-" + std::to_string(p);
}

std::string smr_command(ProcessId p, std::size_t i) {
  return "set k" + std::to_string(i) + " p" + std::to_string(p);
}

/// The harness's replicated state machine: records every applied command so
/// the run can check log agreement across replicas.
struct RecordingSm : smr::StateMachine {
  std::vector<std::string> log;
  void apply(Slot, util::ByteView command) override {
    log.push_back(util::to_string(command));
  }
  // Snapshot = the whole recorded log (unbounded, but this machine exists
  // to check log agreement — a rejoined replica must reproduce the full
  // command sequence, not just a digest of it).
  Bytes snapshot() const override {
    util::Writer w(16 + 16 * log.size());
    w.u32(static_cast<std::uint32_t>(log.size()));
    for (const std::string& c : log) w.str(c);
    return std::move(w).take();
  }
  bool restore(util::ByteView raw) override {
    try {
      util::Reader r(raw);
      const std::uint32_t count = r.u32();
      std::vector<std::string> out;
      out.reserve(std::min<std::size_t>(count, r.remaining() / 4));
      for (std::uint32_t i = 0; i < count; ++i) out.push_back(r.str());
      r.expect_end();
      log = std::move(out);
      return true;
    } catch (const util::SerdeError&) {
      return false;
    }
  }
};

using EngineFactory =
    std::function<std::unique_ptr<core::ConsensusEngine>(ProcessId)>;

/// One process's part of a consensus group. Declared engine → machine →
/// replica, so it destroys the replica (which references both) first.
struct Member {
  std::unique_ptr<core::ConsensusEngine> engine;
  std::unique_ptr<smr::StateMachine> machine;
  std::unique_ptr<smr::Replica> replica;  // null on Byzantine processes
};

/// One replicated consensus group. SMR mode runs one; KV mode runs its data
/// shards followed, under reconfiguration, by the config group. A group
/// keeps what a rejoin needs to rebuild a process's member in place.
struct Group {
  /// "" in SMR mode, "g<i>" for data shard i, "cfg" for the config group:
  /// prefixes the KV rows.
  std::string label;
  bool config = false;  // the KV config group (TableMachine replicas)
  smr::ReplicaConfig rc;
  EngineFactory make_engine;
  std::function<std::unique_ptr<smr::StateMachine>()> make_machine;
  /// Hands the router or migrator process p's current member (KV mode).
  std::function<void(ProcessId)> rebind;
  std::vector<Member> members;  // index p - 1
};

/// Everything one run owns. The executor is declared first (constructed
/// first, destroyed last); all cross-object references during teardown go
/// through shared nodes, so this order is safe.
struct World {
  explicit World(const ClusterConfig& cfg)
      : cfg(cfg),
        exec(),
        rng(cfg.seed),
        keystore(cfg.seed ^ 0x5157ULL),
        network(exec, cfg.n) {
    if (cfg.gst > 0) network.set_gst(cfg.gst, cfg.pre_gst_delay);

    // Memories (either backend).
    for (std::size_t i = 0; i < cfg.m; ++i) {
      const MemoryId mid = static_cast<MemoryId>(i + 1);
      if (cfg.verbs_backend) {
        verbs_backing.push_back(std::make_unique<verbs::VerbsMemory>(
            exec, std::make_unique<verbs::RdmaDevice>(exec, mid, rng.next()),
            all_processes(cfg.n)));
        memories.push_back(verbs_backing.back().get());
      } else {
        mem_backing.push_back(std::make_unique<mem::Memory>(exec, mid));
        memories.push_back(mem_backing.back().get());
      }
    }

    // Per-process liveness flags, signers and memory views.
    for (ProcessId p : all_processes(cfg.n)) {
      alive.push_back(std::make_shared<bool>(true));
      signers.push_back(keystore.register_process(p));
      std::vector<std::unique_ptr<ProcessView>> vs;
      std::vector<mem::MemoryIface*> raw;
      for (auto* m : memories) {
        vs.push_back(std::make_unique<ProcessView>(exec, *m, alive.back()));
        raw.push_back(vs.back().get());
      }
      views.push_back(std::move(vs));
      view_ptrs.push_back(std::move(raw));
    }

    // Every id in the fault plan must name a process or memory of this run.
    const auto check_ids = [](const auto& plan, std::size_t count,
                              const char* what) {
      for (const auto& entry : plan) {
        if (entry.first < 1 || entry.first > count) {
          throw std::invalid_argument(what);
        }
      }
    };
    check_ids(cfg.faults.process_crashes, cfg.n,
              "process_crashes: unknown process");
    check_ids(cfg.faults.byzantine, cfg.n, "byzantine: unknown process");
    check_ids(cfg.faults.process_rejoins, cfg.n,
              "process_rejoins: unknown process");
    check_ids(cfg.faults.memory_crashes, cfg.m,
              "memory_crashes: unknown memory");

    // Per-process fault summary, precomputed so the per-event predicates
    // below (Ω queries, done()) never walk the fault maps.
    byzantine_.assign(cfg.n, 0);
    crash_at_.assign(cfg.n, sim::kTimeInfinity);
    rejoin_at_.assign(cfg.n, sim::kTimeInfinity);
    for (ProcessId p : all_processes(cfg.n)) {
      if (cfg.faults.is_byzantine(p)) byzantine_[p - 1] = 1;
      const auto it = cfg.faults.process_crashes.find(p);
      if (it != cfg.faults.process_crashes.end()) crash_at_[p - 1] = it->second;
    }
    for (const auto& [p, at] : cfg.faults.process_rejoins) {
      if (cfg.faults.is_byzantine(p)) {
        throw std::invalid_argument(
            "process_rejoins: Byzantine processes do not rejoin");
      }
      const auto crash = cfg.faults.process_crashes.find(p);
      if (crash == cfg.faults.process_crashes.end() || crash->second >= at) {
        throw std::invalid_argument(
            "process_rejoins: rejoin must strictly follow a scheduled crash");
      }
      rejoin_at_[p - 1] = at;
    }

    // Ω: lowest-id correct process alive at t (converges once crashes stop;
    // Byzantine processes are never trusted — the standard assumption that
    // Ω eventually outputs a correct process).
    // poke_complete: this oracle's output changes only at process-crash and
    // rejoin times, and the crash callbacks below (plus rejoin_process) poke
    // — so leadership waits need no fallback timers at all.
    omega = std::make_unique<Omega>(
        exec,
        [this](sim::Time t) -> ProcessId {
          for (ProcessId p = 1; p <= static_cast<ProcessId>(this->cfg.n); ++p) {
            if (this->byzantine_[p - 1]) continue;
            // Down exactly during [crash, rejoin): a rejoined process is
            // trustable again (and, as the lowest id, typically reclaims
            // leadership once it recovers).
            if (this->crash_at_[p - 1] <= t && t < this->rejoin_at_[p - 1]) {
              continue;
            }
            return p;
          }
          return kLeaderP1;
        },
        /*poke_complete=*/true);

    // Schedule faults.
    for (const auto& [p, t] : cfg.faults.process_crashes) {
      exec.call_at(t, [this, p = p] {
        *alive[p - 1] = false;
        network.crash(p);
        // The leader oracle keys off crash times: wake suspended
        // wait_leadership calls so succession is notification-driven.
        omega->poke();
      });
    }
    for (const auto& [mid, t] : cfg.faults.memory_crashes) {
      exec.call_at(t, [this, mid = mid] {
        if (this->cfg.verbs_backend) {
          verbs_backing[mid - 1]->device().crash();
        } else {
          mem_backing[mid - 1]->crash();
        }
      });
    }

    reports.resize(cfg.n);
    for (ProcessId p : all_processes(cfg.n)) {
      auto& row = reports[p - 1];
      row.id = p;
      row.byzantine = cfg.faults.is_byzantine(p);
      const auto it = cfg.faults.process_crashes.find(p);
      if (it != cfg.faults.process_crashes.end()) row.crashed_at = it->second;
      if (rejoin_at_[p - 1] != sim::kTimeInfinity) {
        row.rejoined_at = rejoin_at_[p - 1];
      }
    }
  }

  /// Apply `fn` to every backing memory object (for region creation).
  template <typename Fn>
  void for_each_backing(Fn&& fn) {
    if (cfg.verbs_backend) {
      for (auto& vm : verbs_backing) fn(*vm);
    } else {
      for (auto& mm : mem_backing) fn(*mm);
    }
  }

  /// Correct by the paper's book-keeping: never faulty, or faulty only
  /// transiently (crashes but rejoins — by the horizon it is a live replica
  /// again and must satisfy every invariant the always-up replicas do).
  bool correct(ProcessId p) const {
    return !byzantine_[p - 1] && (crash_at_[p - 1] == sim::kTimeInfinity ||
                                  rejoin_at_[p - 1] != sim::kTimeInfinity);
  }

  bool done() const {
    for (ProcessId p = 1; p <= static_cast<ProcessId>(cfg.n); ++p) {
      if (!correct(p)) continue;
      if (!reports[p - 1].decided) return false;
    }
    return true;
  }

  ClusterConfig cfg;
  sim::Executor exec;
  sim::Rng rng;
  crypto::KeyStore keystore;
  net::Network network;
  std::vector<std::unique_ptr<mem::Memory>> mem_backing;
  std::vector<std::unique_ptr<verbs::VerbsMemory>> verbs_backing;
  std::vector<mem::MemoryIface*> memories;
  std::vector<std::shared_ptr<bool>> alive;
  std::vector<crypto::Signer> signers;
  std::vector<std::vector<std::unique_ptr<ProcessView>>> views;
  std::vector<std::vector<mem::MemoryIface*>> view_ptrs;
  std::unique_ptr<Omega> omega;
  std::vector<ProcessReport> reports;
  std::vector<std::uint8_t> byzantine_;   // index p - 1
  std::vector<sim::Time> crash_at_;       // index p - 1; infinity = never
  std::vector<sim::Time> rejoin_at_;      // index p - 1; infinity = never

  // Each process's base transport (index p - 1; KV mode adds a mux over
  // it), declared before the groups that run over them so teardown runs
  // groups → muxes → transports.
  std::vector<std::unique_ptr<core::NetTransport>> transports;
  std::vector<std::unique_ptr<core::TransportMux>> muxes;  // KV: 1 per process

  // The consensus groups (single-shot and SMR modes run one), then KV
  // mode's client layer and, under reconfiguration, the cluster-level table
  // view and the migrator. Destroyed migrator → view → workload → router →
  // groups by reverse declaration order.
  std::vector<Group> groups;
  std::unique_ptr<kv::Router> kv_router;
  std::unique_ptr<kv::Workload> kv_workload;
  bool reconfig_plan_done = false;
  std::unique_ptr<reconfig::TableView> table_view;
  std::unique_ptr<reconfig::Migrator> migrator;
  std::vector<sim::Time> reconfig_flips;  // accepted-epoch arrival times

  // Crash-and-rejoin graveyard: a crashed incarnation's objects are parked
  // here when the process rebuilds, because coroutine frames owned by the
  // executor still reference them — they must outlive the run (the executor
  // destroys parked frames at teardown without resuming them). An
  // incarnation destroys its members (one per group) before its mux and
  // transport.
  struct Incarnation {
    std::unique_ptr<core::NetTransport> transport;
    std::unique_ptr<core::TransportMux> mux;
    std::vector<Member> members;
  };
  std::vector<Incarnation> retired;

  // The regions Byzantine strategies attack: slot 0's of the first group
  // (the only group in single-shot and SMR modes, shard 0 in KV mode).
  core::NebRegions neb0;
  core::CheapQuorumRegions cq0;
};

/// Single-shot mode: await one proposal (coroutine state in parameters, not
/// captures) and record its decision in the process's row.
sim::Task<void> drive_decision(ProcessReport* row,
                               sim::Task<core::Decision> proposal) {
  const core::Decision d = co_await std::move(proposal);
  row->decided = true;
  row->decision = util::to_string(d.value);
  row->decided_at = d.decided_at;
  row->fast_path = d.fast;
}

// --- Byzantine strategies. ---

sim::Task<void> byz_neb_equivocate(World* w, ProcessId p) {
  // Write a *different* validly-signed first message to each memory's copy
  // of our own NEB slot — the equivocation Algorithm 2 must suppress.
  const std::string slot = w->neb0.ns + "neb/" + std::to_string(p) + "/1/" +
                           std::to_string(p);
  for (std::size_t i = 0; i < w->memories.size(); ++i) {
    const Bytes msg = util::to_bytes("equivocation-" + std::to_string(i));
    const crypto::Signature sig =
        w->signers[p - 1].sign(core::neb_signing_bytes(1, msg));
    (void)co_await w->memories[i]->write(p, w->neb0.per_process.at(p), slot,
                                         core::encode_neb_slot(1, msg, sig));
  }
  co_return;
}

sim::Task<void> byz_cq_leader_equivocate(World* w, ProcessId p) {
  // As the Cheap Quorum leader, plant different signed values on different
  // memories, then go silent. Followers read a mixed quorum, fail to reach
  // unanimity, panic, and the backup must still agree.
  for (std::size_t i = 0; i < w->memories.size(); ++i) {
    const Bytes v = util::to_bytes("evil-" + std::to_string(i % 2));
    const crypto::Signature sig =
        w->signers[p - 1].sign(core::cq_value_signing_bytes(v));
    (void)co_await w->memories[i]->write(p, w->cq0.leader,
                                         w->cq0.ns + "cq/leader/value",
                                         core::encode_leader_blob(v, sig));
  }
  co_return;
}

sim::Task<void> byz_forge_client_commands(World* w, ProcessId p,
                                          bool forge_txn) {
  // The session-hijack attack (KV mode, CQ leader): win slot 0 of shard 0
  // honestly — the *same* validly-signed leader blob on every memory, so
  // followers reach unanimity and the fast path decides it — but make the
  // decided payload a batch of well-formed kv::Commands claiming a victim
  // client's identity with sky-high seqs. Without client signing the
  // machines apply them, the victim's session fast-forwards past the
  // forged seqs, and every real retry deduplicates against the attacker's
  // write. With signing on both land in kv_forged: one carries no client
  // signature at all, the other a *valid* signature under the attacker's
  // own keystore identity (the strongest forgery the model allows — a
  // Byzantine process only ever holds its own signer).
  const kv::ClientId victim = 1;
  kv::Command forged1;
  forged1.op = kv::Op::kPut;
  forged1.client = victim;
  forged1.seq = 1000000;
  forged1.key = util::to_bytes("forged-key");
  forged1.value = util::to_bytes("hijack");
  kv::Command forged2 = forged1;
  forged2.seq = 1000001;
  const Bytes body2 = kv::encode_command(forged2);
  // Bind the forgery to shard 0's signing domain — the group the attack
  // targets — so the rejection pinned here is the signer check, not the
  // (also-enforced) cross-shard binding.
  const crypto::Signature sig2 =
      w->signers[p - 1].sign(kv::command_signing_bytes(0, body2));
  std::vector<Bytes> batch = {kv::encode_command(forged1),
                              kv::encode_signed_command(body2, sig2)};
  if (forge_txn) {
    // Transactional runs add a third forgery: a well-formed TxnPrepare on a
    // hot account under the victim's session, attacker-signed — a Byzantine
    // replica must not be able to plant a lock (and wedge every transfer
    // touching the account) any more than it can plant a write.
    kv::Command forged3;
    forged3.op = kv::Op::kTxnPrepare;
    forged3.client = victim;
    forged3.seq = 1000002;
    forged3.key = util::to_bytes("acct-0");
    txn::PrepareRecord pr;
    pr.txn = 0xF063D;
    pr.write = txn::WriteKind::kPut;
    pr.value = util::to_bytes("999999");
    forged3.value = txn::encode_prepare(pr);
    const Bytes body3 = kv::encode_command(forged3);
    const crypto::Signature sig3 =
        w->signers[p - 1].sign(kv::command_signing_bytes(0, body3));
    batch.push_back(kv::encode_signed_command(body3, sig3));
  }
  const Bytes payload = smr::encode_batch(batch);
  const crypto::Signature blob_sig =
      w->signers[p - 1].sign(core::cq_value_signing_bytes(payload));
  for (std::size_t i = 0; i < w->memories.size(); ++i) {
    (void)co_await w->memories[i]->write(
        p, w->cq0.leader, w->cq0.ns + "cq/leader/value",
        core::encode_leader_blob(payload, blob_sig));
  }
  co_return;
}

sim::Task<void> byz_garbage(World* w, ProcessId p) {
  // Malformed NEB slot + junk on every message tag others listen on.
  const std::string slot = w->neb0.ns + "neb/" + std::to_string(p) + "/1/" +
                           std::to_string(p);
  for (std::size_t i = 0; i < w->memories.size(); ++i) {
    (void)co_await w->memories[i]->write(p, w->neb0.per_process.at(p), slot,
                                         util::to_bytes("\xde\xad\xbe\xef"));
  }
  w->network.broadcast(p, 900, util::to_bytes("junk"));
  w->network.broadcast(p, 100, util::to_bytes("junk"));
  co_return;
}

void spawn_byzantine(World& w, const ClusterConfig& config) {
  for (const auto& [p, strategy] : config.faults.byzantine) {
    switch (strategy) {
      case ByzantineStrategy::kSilent:
        break;
      case ByzantineStrategy::kNebEquivocate:
        w.exec.spawn(byz_neb_equivocate(&w, p));
        break;
      case ByzantineStrategy::kCqLeaderEquivocate:
        w.exec.spawn(byz_cq_leader_equivocate(&w, p));
        break;
      case ByzantineStrategy::kGarbage:
        w.exec.spawn(byz_garbage(&w, p));
        break;
      case ByzantineStrategy::kForgeClientCommands:
        w.exec.spawn(byz_forge_client_commands(
            &w, p,
            config.kv.sign_commands && config.kv.txn_fraction > 0.0));
        break;
    }
  }
}
// ---------------------------------------------------------------------------
// Report plumbing shared by every run mode.
// ---------------------------------------------------------------------------

/// End-of-run resource counters shared by every run mode (single-shot, SMR,
/// KV) — one definition, so a counter added to RunReport cannot silently
/// stay zero in one mode.
void fill_resource_counters(RunReport& report, World& w) {
  report.messages_sent = w.network.messages_sent();
  if (!w.cfg.verbs_backend) {
    for (const auto& m : w.mem_backing) {
      report.mem_reads += m->reads();
      report.mem_read_batches += m->read_batches();
      report.mem_writes += m->writes();
      report.permission_changes += m->permission_changes();
    }
  } else {
    for (const auto& vm : w.verbs_backing) {
      report.mem_reads += vm->device().posted_reads();
      report.mem_read_batches += vm->device().posted_read_batches();
      report.mem_writes += vm->device().posted_writes();
      report.permission_changes += vm->permission_changes();
    }
  }
  report.signatures = w.keystore.signatures_made();
  report.verifications = w.keystore.verifications_made();
  report.events = w.exec.events_processed();
  if (report.slots_applied > 0) {
    report.events_per_slot = static_cast<double>(report.events) /
                             static_cast<double>(report.slots_applied);
  }
  for (const Group& g : w.groups) {
    for (const Member& m : g.members) {
      const core::trusted::TsendStats s = m.engine->tsend_stats();
      report.tsend_deliveries += s.deliveries;
      report.history_entries_decoded += s.entries_decoded;
      report.history_entries_skipped += s.entries_skipped;
    }
  }
  if (report.tsend_deliveries > 0) {
    report.decoded_per_delivery =
        static_cast<double>(report.history_entries_decoded) /
        static_cast<double>(report.tsend_deliveries);
  }
}

void add_recovery_counters(RunReport& report, const smr::Log& log) {
  report.snapshots_taken += log.snapshots_taken();
  report.snapshots_installed += log.snapshots_installed();
  report.slots_truncated += log.slots_truncated();
  report.catchup_bytes += log.catchup_bytes();
}

// ---------------------------------------------------------------------------
// Replicated modes: consensus groups of smr::Replica over the algorithm's
// ConsensusEngine adapter. SMR mode runs one group of RecordingSm replicas.
// KV mode runs `shards` data groups of kv::StateMachine replicas — message
// traffic on a TransportMux sub per group (each with its own
// SlotTransportHub slot namespace inside the engine), memory traffic under
// "g<shard>/"-prefixed slot regions — plus, under reconfiguration, a config
// group of reconfig::TableMachine replicas, with a kv::Router providing
// exactly-once client sessions and a kv::Workload driving closed-loop
// clients. Both modes build, start, rejoin and roll up their groups through
// the code below.
// ---------------------------------------------------------------------------

/// Crash-and-rejoin is limited to the message-based engines: every other
/// engine reaches memory through its process's ProcessViews, which all of
/// the process's incarnations share, so a crashed incarnation's parked
/// coroutine could wake after the rejoin and act with the process's
/// permissions. Paxos engines rebuild cleanly over a fresh NetTransport.
/// And without a snapshot cadence peers have nothing to serve a rejoiner,
/// so the run would never converge — reject up front.
void check_rejoin_support(const ClusterConfig& config, Slot snapshot_interval,
                          const char* knob) {
  if (config.faults.process_rejoins.empty()) return;
  if (config.algo != Algorithm::kPaxos &&
      config.algo != Algorithm::kFastPaxos) {
    throw std::invalid_argument(
        "crash-and-rejoin needs a message-based engine (Paxos / Fast Paxos)");
  }
  if (snapshot_interval == 0) {
    throw std::invalid_argument(std::string("crash-and-rejoin needs ") + knob +
                                " > 0 (peers must have a snapshot to serve)");
  }
}

/// The replica settings SmrConfig and KvConfig share.
template <typename ModeConfig>
smr::ReplicaConfig replica_config(const ModeConfig& mode) {
  smr::ReplicaConfig rc;
  rc.batch = mode.batch;
  rc.log.window = mode.window;
  rc.log.snapshot_interval = mode.snapshot_interval;
  return rc;
}

/// Give process p a fresh base transport on message tag 100; KV mode puts
/// a TransportMux over it whose sub(tag) carries each group.
void connect_process(World& w, ProcessId p) {
  w.transports[p - 1] =
      std::make_unique<core::NetTransport>(w.exec, w.network, p, /*tag=*/100);
  if (w.cfg.kv.enabled) {
    w.muxes[p - 1] =
        std::make_unique<core::TransportMux>(w.exec, *w.transports[p - 1]);
  }
}

/// Process p's transport for the group on mux tag `tag`.
core::Transport& group_transport(World& w, ProcessId p, std::uint8_t tag) {
  if (w.cfg.kv.enabled) return w.muxes[p - 1]->sub(tag);
  return *w.transports[p - 1];
}

/// A SlotRegions pool over namespace `base` whose slot entry `make(memory,
/// ns)` creates on every backing memory in order (ids agree across
/// memories, so the last call's result names them all).
template <typename Regions, typename Make>
std::shared_ptr<core::SlotRegions<Regions>> slot_regions(
    World& w, const std::string& base, Make make) {
  return std::make_shared<core::SlotRegions<Regions>>(
      base, [&w, make](const std::string& ns) {
        Regions out{};
        w.for_each_backing([&](auto& m) { out = make(m, ns); });
        return out;
      });
}

/// One group's engine factory under the configured algorithm. Message
/// engines run over group_transport(p, tag); memory engines share one
/// region pool over the group's namespace `ns`. `byz_target` points the
/// Byzantine region attacks at this group's slot 0.
EngineFactory engine_factory(World& w, std::uint8_t tag, const std::string& ns,
                             bool byz_target) {
  const ClusterConfig& config = w.cfg;
  const std::size_t n = config.n;
  switch (config.algo) {
    case Algorithm::kPaxos:
    case Algorithm::kFastPaxos: {
      core::PaxosConfig pc;
      pc.leader_terms = (config.algo == Algorithm::kFastPaxos);
      return [&w, tag, pc](ProcessId p) {
        return std::make_unique<core::PaxosEngine>(
            w.exec, group_transport(w, p, tag), *w.omega, pc);
      };
    }

    case Algorithm::kDiskPaxos: {
      auto pool = slot_regions<RegionId>(
          w, ns, [n](auto& m, const std::string& slot) {
            return core::make_disk_region(m, n, slot).id;
          });
      return [&w, tag, pool](ProcessId p) {
        return std::make_unique<core::DiskPaxosEngine>(
            w.exec, w.view_ptrs[p - 1], group_transport(w, p, tag), *w.omega,
            pool);
      };
    }

    case Algorithm::kProtectedMemoryPaxos:
    case Algorithm::kAlignedPaxos: {
      auto pool = slot_regions<RegionId>(
          w, ns, [n](auto& m, const std::string& slot) {
            return core::make_pmp_region(m, n, kLeaderP1, slot).id;
          });
      if (config.algo == Algorithm::kAlignedPaxos) {
        return [&w, tag, pool](ProcessId p) {
          return std::make_unique<core::AlignedEngine>(
              w.exec, w.view_ptrs[p - 1], group_transport(w, p, tag),
              *w.omega, pool);
        };
      }
      return [&w, tag, pool](ProcessId p) {
        return std::make_unique<core::PmpEngine>(
            w.exec, w.view_ptrs[p - 1], group_transport(w, p, tag), *w.omega,
            pool);
      };
    }

    case Algorithm::kRobustBackup:
    case Algorithm::kFastRobust:
      break;
  }

  // The NEB-backed Byzantine engines: per-slot stacks over the memories.
  const bool byz_regions = byz_target && !config.faults.byzantine.empty();
  // Backup rounds run over non-equivocating broadcast (≥6 delays per
  // hop, plus scan latency growing with n); give proposers generous
  // patience so they don't abort rounds that are still in flight.
  core::PaxosConfig backup;
  backup.round_timeout = 150 * n;
  backup.retry_backoff = 40;
  if (config.algo == Algorithm::kRobustBackup) {
    auto pool = slot_regions<core::NebSlotRegions>(
        w, ns, [n](auto& m, const std::string& slot) {
          return core::make_neb_slot_regions(m, n, slot);
        });
    if (byz_regions) w.neb0 = pool->get(0).neb_regions(pool->ns(0));
    core::RobustBackupConfig rc;
    rc.paxos = backup;
    return [&w, pool, rc](ProcessId p) {
      return std::make_unique<core::RobustBackupEngine>(
          w.exec, w.view_ptrs[p - 1], pool, w.keystore, w.signers[p - 1],
          *w.omega, rc);
    };
  }
  auto pool = slot_regions<core::FastRobustSlotRegions>(
      w, ns, [n](auto& m, const std::string& slot) {
        return core::make_fast_robust_slot_regions(m, n, slot);
      });
  if (byz_regions) {
    const core::FastRobustSlotRegions& r0 = pool->get(0);
    w.neb0 = r0.neb_regions(pool->ns(0));
    w.cq0 = r0.cq_regions(pool->ns(0));
  }
  core::FastRobustConfig fc;
  fc.cheap.timeout = config.cq_timeout;
  fc.paxos = backup;
  return [&w, pool, fc](ProcessId p) {
    return std::make_unique<core::FastRobustEngine>(
        w.exec, w.view_ptrs[p - 1], pool, w.keystore, w.signers[p - 1],
        *w.omega, fc);
  };
}

/// Append a group on mux tag `tag` and build its engines, one per process
/// in process order (see engine_factory).
Group& add_group(World& w, std::string label, std::uint8_t tag,
                 const std::string& ns, bool byz_target) {
  Group g;
  g.label = std::move(label);
  g.make_engine = engine_factory(w, tag, ns, byz_target);
  for (ProcessId p : all_processes(w.cfg.n)) {
    g.members.push_back(Member{g.make_engine(p), nullptr, nullptr});
  }
  return w.groups.emplace_back(std::move(g));
}

/// Give every member a state machine and, on correct processes, a replica
/// over it.
void add_replicas(World& w, Group& g) {
  for (ProcessId p : all_processes(w.cfg.n)) {
    Member& m = g.members[p - 1];
    m.machine = g.make_machine();
    if (w.cfg.faults.is_byzantine(p)) continue;
    m.replica = std::make_unique<smr::Replica>(w.exec, *m.engine, *w.omega,
                                               *m.machine, g.rc);
  }
}

/// Rebuild process `p` as a fresh incarnation in every group: park the
/// crashed objects in the graveyard (live coroutine frames still reference
/// them), free the network inbox, and start recovering replicas over a
/// brand-new transport. Volatile state is wiped by construction —
/// everything the new incarnation knows arrives through snapshot + log
/// catch-up from its peers — and each group's rebind hook hands the router
/// or migrator the new replica, so client replies flow from it.
void rejoin_process(World& w, ProcessId p) {
  for (Group& g : w.groups) g.members[p - 1].replica->log().halt();
  w.transports[p - 1]->sever();
  World::Incarnation& dead = w.retired.emplace_back();
  dead.transport = std::move(w.transports[p - 1]);
  if (!w.muxes.empty()) dead.mux = std::move(w.muxes[p - 1]);
  for (Group& g : w.groups) {
    dead.members.push_back(std::move(g.members[p - 1]));
  }

  *w.alive[p - 1] = true;
  w.network.revive(p);
  connect_process(w, p);
  for (Group& g : w.groups) {
    Member& m = g.members[p - 1];
    m.engine = g.make_engine(p);
    m.machine = g.make_machine();
    smr::ReplicaConfig rc = g.rc;
    rc.log.recover = true;
    m.replica = std::make_unique<smr::Replica>(w.exec, *m.engine, *w.omega,
                                               *m.machine, rc);
  }
  if (!w.muxes.empty()) w.muxes[p - 1]->start();
  for (Group& g : w.groups) {
    g.members[p - 1].engine->start();
    g.members[p - 1].replica->start();
    if (g.rebind) g.rebind(p);
  }
  // Leadership may now revert to this (lower-id) process; wake the waiters.
  w.omega->poke();
}

/// The table sink every config-group machine gets: offer to the cluster
/// view (first replica to apply an epoch wins) and record the accepted
/// flip's virtual time for the report fingerprint.
reconfig::TableMachine::TableSink table_sink_for(World& w) {
  return [&w](const kv::ShardTable& t, const reconfig::ConfigChange& c) {
    const std::uint64_t before = w.table_view->epoch();
    w.table_view->offer(t, c);
    if (w.table_view->epoch() != before) {
      w.reconfig_flips.push_back(w.exec.now());
    }
  };
}

/// Drive the scheduled reconfiguration plan, serially: each action waits
/// for its time, then proposes and fully migrates before the next starts.
sim::Task<void> run_reconfig_plan(World* w, std::vector<ReconfigAction> plan) {
  for (const ReconfigAction& a : plan) {
    if (w->exec.now() < a.at) co_await w->exec.sleep(a.at - w->exec.now());
    (void)co_await w->migrator->run_change(a.kind, a.src, a.dst);
  }
  w->reconfig_plan_done = true;
}

/// KV mode's groups: data shard i on mux tag i in region namespace "g<i>/",
/// then (under reconfiguration) the config group on the next tag in
/// "cfg/", and the router, migrator and workload over them.
void build_kv(World& w, smr::ReplicaConfig rc, std::size_t shards,
              std::size_t data_groups) {
  const KvConfig& kvc = w.cfg.kv;
  const bool reconfig = !kvc.reconfig.empty();
  const kv::ShardTable initial = kv::ShardTable::initial(shards);
  for (std::size_t i = 0; i < data_groups; ++i) {
    Group& g = add_group(w, "g" + std::to_string(i),
                         static_cast<std::uint8_t>(i), kv::shard_ns(i),
                         /*byz_target=*/i == 0);
    g.rc = rc;
    // A fresh machine starts partitioned at the *initial* table: a peer's
    // snapshot (or the replayed admin ops, when no snapshot was cut yet)
    // carries a rejoiner to the current epoch's ownership.
    g.make_machine = [i, reconfig, initial] {
      auto sm = std::make_unique<kv::StateMachine>();
      if (reconfig) {
        sm->configure_partition(static_cast<std::uint32_t>(i), initial);
      }
      return sm;
    };
    g.rebind = [&w, i](ProcessId p) {
      const Member& m = w.groups[i].members[p - 1];
      w.kv_router->rebind(i, p, m.replica.get(),
                          static_cast<kv::StateMachine*>(m.machine.get()));
    };
  }
  if (reconfig) {
    w.table_view = std::make_unique<reconfig::TableView>(w.exec, initial);
    // Config changes are rare and tiny — batch of 1, but the same snapshot
    // cadence so rejoiners can catch up the table history.
    Group& g = add_group(w, "cfg", static_cast<std::uint8_t>(data_groups),
                         kv::config_ns(), /*byz_target=*/false);
    g.config = true;
    g.rc = rc;
    g.rc.batch = 1;
    // The view drops replayed old epochs, so a rejoiner into a post-split
    // world installs the table without re-announcing flips.
    g.make_machine = [&w, initial] {
      auto tm = std::make_unique<reconfig::TableMachine>(initial);
      tm->set_table_sink(table_sink_for(w));
      return tm;
    };
    g.rebind = [&w](ProcessId p) {
      const Member& m = w.groups.back().members[p - 1];
      w.migrator->rebind_config(p, m.replica.get());
    };
  }
  for (Group& g : w.groups) add_replicas(w, g);

  std::vector<kv::ShardBackend> backends(data_groups);
  for (std::size_t i = 0; i < data_groups; ++i) {
    for (const Member& m : w.groups[i].members) {
      backends[i].replicas.push_back(m.replica.get());
      auto* machine = static_cast<kv::StateMachine*>(m.machine.get());
      backends[i].machines.push_back(m.replica == nullptr ? nullptr : machine);
    }
  }
  kv::RouterConfig router_cfg;
  router_cfg.retry_timeout = kvc.retry_timeout;
  router_cfg.adaptive_retry = kvc.adaptive_retry;
  // Signed-command mode: the router registers every session's client
  // identity in the run's shared keystore and arms verification on every
  // backend machine (client ids live at kClientSignerBase, disjoint from
  // the replica processes registered above).
  router_cfg.keystore = kvc.sign_commands ? &w.keystore : nullptr;
  w.kv_router = std::make_unique<kv::Router>(
      w.exec, *w.omega, kv::ShardMap(shards), std::move(backends), router_cfg,
      w.table_view.get());
  if (reconfig) {
    kv::ShardBackend cfg_backend;
    for (const Member& m : w.groups.back().members) {
      cfg_backend.replicas.push_back(m.replica.get());
    }
    w.migrator = std::make_unique<reconfig::Migrator>(
        w.exec, *w.omega, *w.table_view, std::move(cfg_backend), *w.kv_router);
  }
  kv::WorkloadConfig wc;
  wc.clients = kvc.clients;
  wc.ops_per_client = kvc.ops_per_client;
  wc.mix = kvc.mix;
  wc.dist = kvc.dist;
  wc.keys = kvc.keys;
  wc.seed = w.cfg.seed;
  wc.txn_fraction = kvc.txn_fraction;
  wc.txn_accounts = kvc.txn_accounts;
  wc.accounts = kvc.accounts;
  wc.txn_zipf_theta = kvc.txn_zipf_theta;
  wc.txn_crash_client = kvc.txn_crash_client;
  wc.txn_crash_txn = kvc.txn_crash_txn;
  wc.txn_crash_records = kvc.txn_crash_records;
  wc.txn_crash_pause = kvc.txn_crash_pause;
  wc.txn_crash_conflict = kvc.txn_crash_conflict;
  w.kv_workload = std::make_unique<kv::Workload>(w.exec, *w.kv_router, wc);
}

/// Whether group `g`'s engines need every correct replica to propose every
/// slot.
bool every_replica_proposes(const Group& g) {
  return !g.members.empty() && g.members.front().engine->all_propose();
}

/// Whether group `g` has converged: every correct replica at one log
/// length, with the proposers idle — the leader in leader mode, every
/// replica under all-propose. A leader must also have applied every slot
/// its engine knows of: a new leader that never proposed is idle, yet it
/// still owes a re-drive of the slots its dead predecessor opened.
bool settled(const World& w, const Group& g) {
  const bool all_propose = every_replica_proposes(g);
  std::optional<Slot> len;
  for (ProcessId p = 1; p <= static_cast<ProcessId>(w.cfg.n); ++p) {
    if (!w.correct(p)) continue;
    const smr::Replica& r = *g.members[p - 1].replica;
    const Slot applied = r.log().applied_len();
    if ((all_propose && !r.idle()) || (len.has_value() && applied != *len)) {
      return false;
    }
    len = applied;
  }
  if (all_propose) return true;
  const ProcessId leader = w.omega->leader();
  if (leader < 1 || leader > w.cfg.n || !w.correct(leader)) return false;
  const Member& lead = g.members[leader - 1];
  return lead.replica->idle() &&
         lead.engine->slot_horizon() <= lead.replica->log().applied_len();
}

/// Roll the correct replicas of every data group (SMR mode's one group, KV
/// mode's shards — not the config group) into `report`: commit and
/// queue-wait percentiles, occupancy, recovery counters, the
/// per-slot state their engines still hold, the first decision time, and
/// slot accounting from one reference replica per group. The fast path is
/// proposer-local (learners decide via DECIDE), so each group counts its
/// busiest replica's fast slots and the groups add up. Commit samples: a leader-mode group's proposers each win their own
/// slots, so their samples pool; every replica of an all-propose group can
/// win the same slot, so that group counts one replica's samples — the
/// correct replica with the lowest commit p50 (ties: lowest id), whose
/// decisions answer clients first. Retired incarnations' recovery work
/// counts too.
void roll_up_replicas(const World& w, RunReport& report) {
  std::vector<sim::Time> latencies;
  std::vector<sim::Time> queue_waits;
  // A log's slot-accounting rank: applied length, then commands.
  const auto rank = [](const smr::Log* log) {
    return log == nullptr ? std::pair<Slot, std::uint64_t>{0, 0}
                          : std::pair{log->applied_len(), log->stats().commands};
  };
  for (const Group& g : w.groups) {
    if (g.config) continue;
    const smr::Log* ref = nullptr;  // slot accounting reference
    bool ref_rejoined = false;
    std::uint64_t fast_slots = 0;
    const std::vector<sim::Time>* sampler = nullptr;  // all-propose only
    sim::Time sampler_p50 = 0;
    for (ProcessId p = 1; p <= static_cast<ProcessId>(w.cfg.n); ++p) {
      if (!w.correct(p)) continue;
      const smr::Log& log = g.members[p - 1].replica->log();
      const smr::SlotStats& s = log.stats();
      // A rejoiner's fold excludes the slots its snapshot install covered,
      // while a survivor's is exact: KV mode prefers a replica that never
      // rejoined, SMR mode the longest log and, at equal length, the fuller
      // command count.
      const bool rejoined = w.rejoin_at_[p - 1] != sim::kTimeInfinity;
      if (w.cfg.kv.enabled ? ref == nullptr || (ref_rejoined && !rejoined)
                           : rank(&log) > rank(ref)) {
        ref = &log;
        ref_rejoined = rejoined;
      }
      fast_slots = std::max(fast_slots, s.fast_slots);
      if (!every_replica_proposes(g)) {
        latencies.insert(latencies.end(), s.won_latencies.begin(),
                         s.won_latencies.end());
      } else if (!s.won_latencies.empty()) {
        std::vector<sim::Time> sorted = s.won_latencies;
        std::sort(sorted.begin(), sorted.end());
        const sim::Time p50 = smr::latency_percentile(sorted, 50);
        if (sampler == nullptr || p50 < sampler_p50) {
          sampler = &s.won_latencies;
          sampler_p50 = p50;
        }
      }
      queue_waits.insert(queue_waits.end(), s.queue_waits.begin(),
                         s.queue_waits.end());
      report.occupancy_slots += s.occupancy_slots;
      report.occupancy_limit += s.occupancy_limit;
      add_recovery_counters(report, log);
      const core::ConsensusEngine& engine = *g.members[p - 1].engine;
      report.slot_state_held =
          std::max({report.slot_state_held, engine.instances_held(),
                    engine.subs_held()});
      report.first_decision_delay =
          std::min(report.first_decision_delay, s.first_decided_at);
    }
    report.fast_slots += fast_slots;
    if (sampler != nullptr) {
      latencies.insert(latencies.end(), sampler->begin(), sampler->end());
    }
    if (ref != nullptr) {
      report.slots_applied += ref->applied_len();
      report.commands_applied += ref->stats().commands;
      report.noop_slots += ref->stats().noop_slots;
    }
  }
  for (const World::Incarnation& dead : w.retired) {
    for (const Member& m : dead.members) {
      if (m.replica != nullptr) add_recovery_counters(report, m.replica->log());
    }
  }

  std::sort(latencies.begin(), latencies.end());
  report.commit_p50 = smr::latency_percentile(latencies, 50);
  report.commit_p99 = smr::latency_percentile(latencies, 99);
  report.commit_p999 = smr::latency_percentile(latencies, 99.9);
  std::sort(queue_waits.begin(), queue_waits.end());
  report.queue_wait_p50 = smr::latency_percentile(queue_waits, 50);
  report.queue_wait_p99 = smr::latency_percentile(queue_waits, 99);
  if (report.occupancy_limit > 0) {
    report.window_occupancy = static_cast<double>(report.occupancy_slots) /
                              static_cast<double>(report.occupancy_limit);
  }
}

const std::vector<std::string>& log_of(const Member& m) {
  return static_cast<const RecordingSm&>(*m.machine).log;
}
const kv::StateMachine& store_of(const Member& m) {
  return static_cast<const kv::StateMachine&>(*m.machine);
}
const reconfig::TableMachine& table_of(const Member& m) {
  return static_cast<const reconfig::TableMachine&>(*m.machine);
}

/// A KV-mode replica's agreement digest: its store/session hash in a data
/// shard, its table-history hash in the config group.
std::uint64_t kv_digest(const Group& g, const Member& m) {
  return g.config ? table_of(m).state_hash() : store_of(m).store_hash();
}

/// SMR mode's invariants over correct replicas: identical applied logs (SMR
/// agreement) holding only submitted commands (SMR validity).
void check_logs(const World& w, RunReport& report) {
  std::set<std::string> submitted;
  for (ProcessId p : all_processes(w.cfg.n)) {
    if (w.cfg.faults.is_byzantine(p)) continue;
    for (std::size_t i = 0; i < w.cfg.smr.commands; ++i) {
      submitted.insert(smr_command(p, i));
    }
  }
  const std::vector<std::string>* reference = nullptr;
  for (ProcessId p : all_processes(w.cfg.n)) {
    if (!w.correct(p)) continue;
    const std::vector<std::string>& log = log_of(w.groups[0].members[p - 1]);
    if (reference == nullptr) {
      reference = &log;
    } else if (*reference != log) {
      report.agreement = false;
    }
    for (const auto& c : log) {
      if (!submitted.contains(c)) report.validity = false;
    }
  }
  if (report.slots_applied > 0 && reference != nullptr && !reference->empty()) {
    report.decided_value = reference->front();
  }
}

/// KV mode's client-visible layer and invariants. Per group over correct
/// replicas: one digest (KV agreement) and no malformed commands (KV
/// validity); each data shard's first correct replica supplies its
/// counters, and the digests fold into kv_store_hash. Then the global
/// checks: exactly-once, no leaked locks, conserved balances.
void check_stores(const World& w, RunReport& report) {
  const kv::WorkloadStats& ws = w.kv_workload->stats();
  report.kv_ops = ws.ops;
  report.kv_reads = ws.reads;
  report.kv_writes = ws.puts + ws.dels + ws.cas_ops;
  report.kv_retries = w.kv_router->retries();
  report.kv_ops_per_kdelay = ws.ops_per_kdelay();
  std::vector<sim::Time> op_latencies = ws.latencies;
  std::sort(op_latencies.begin(), op_latencies.end());
  report.kv_op_p50 = smr::latency_percentile(op_latencies, 50);
  report.kv_op_p99 = smr::latency_percentile(op_latencies, 99);
  report.kv_op_p999 = smr::latency_percentile(op_latencies, 99.9);

  // Config-group digests (state_hash covers table + accept/reject counters)
  // fold in too, so reconfig determinism pins the config log; static runs
  // have no config group and their hash is unchanged.
  std::uint64_t combined_hash = util::kFnvBasis;
  std::uint64_t effective_total = 0;
  for (const Group& g : w.groups) {
    std::optional<std::uint64_t> reference;
    for (ProcessId p : all_processes(w.cfg.n)) {
      if (!w.correct(p)) continue;
      const Member& m = g.members[p - 1];
      const std::uint64_t digest = kv_digest(g, m);
      if ((g.config ? table_of(m).malformed() : store_of(m).malformed()) != 0) {
        report.validity = false;
      }
      if (reference.has_value()) {
        if (digest != *reference) report.agreement = false;
        continue;
      }
      reference = digest;
      if (g.config) continue;
      const kv::StateMachine& sm = store_of(m);
      report.kv_shard_ops.push_back(sm.ops_applied());
      report.kv_duplicates += sm.duplicates_suppressed();
      report.kv_malformed += sm.malformed();
      report.kv_forged += sm.forged();
      effective_total += sm.ops_applied();
      report.kv_txn_conflicts += sm.txn_conflicts();
      report.kv_locks_held += sm.locks_held();
      // Balance conservation: every committed transfer moves value
      // between accounts without creating or destroying any, so the
      // accounts' sum across all shards must be exactly 0.
      for (const auto& [k, v] : sm.store()) {
        static constexpr char kAcct[] = "acct-";
        if (k.size() >= 5 && std::equal(kAcct, kAcct + 5, k.begin())) {
          // Account bytes are attacker-influenced in unsigned Byzantine
          // runs: parse totally — anything that is not exactly a decimal
          // int64 is a validity failure, never a throw out of the rollup.
          const char* b = reinterpret_cast<const char*>(v.data());
          const char* e = b + v.size();
          std::int64_t bal = 0;
          const std::from_chars_result res = std::from_chars(b, e, bal);
          if (res.ec == std::errc{} && res.ptr == e) {
            report.kv_txn_balance += bal;
          } else {
            report.validity = false;
          }
        }
      }
    }
    if (reference.has_value()) {
      combined_hash = util::fnv1a_u64(combined_hash, *reference);
    }
  }
  report.kv_store_hash = combined_hash;
  if (w.migrator != nullptr) {
    report.reconfig_epoch = w.table_view->epoch();
    report.reconfig_migrations = w.migrator->migrations();
    report.reconfig_keys_moved = w.migrator->keys_moved();
    report.reconfig_proposals = w.migrator->proposals();
    report.reconfig_bounces = w.kv_router->bounces();
    report.reconfig_flip_times = w.reconfig_flips;
  }
  // Exactly-once, globally: every completed client op applied its mutation
  // exactly once, on exactly one shard (only checkable once everything
  // settled — a cut-short run legitimately has uncommitted tails). Admin
  // (seal/install/purge) applies count separately, so this rollup holds
  // across epoch flips and live migrations too.
  if (report.termination && effective_total != ws.ops) {
    report.validity = false;
  }
  // Transaction invariants (checked on every terminated run — both hold
  // trivially without a txn mix): no transaction may leave a lock behind
  // (every 2PC decided), and committed transfers conserve Σ balances.
  report.kv_txns = ws.txns;
  report.kv_txn_commits = ws.txn_commits;
  report.kv_txn_aborts = ws.txn_aborts;
  report.kv_txn_recoveries = ws.txn_recoveries;
  if (report.termination &&
      (report.kv_locks_held != 0 || report.kv_txn_balance != 0)) {
    report.validity = false;
  }
  std::vector<sim::Time> txn_latencies = ws.txn_commit_latencies;
  std::sort(txn_latencies.begin(), txn_latencies.end());
  report.kv_txn_commit_p50 = smr::latency_percentile(txn_latencies, 50);
  report.kv_txn_commit_p999 = smr::latency_percentile(txn_latencies, 99.9);
  if (report.kv_ops > 0) {
    report.decided_value = "kv:" + std::to_string(report.kv_store_hash);
  }
}

/// One row per process. A non-Byzantine row carries its last apply time
/// over every group and its decision: SMR mode's applied log, joined; KV
/// mode's per-group applied lengths and digests — the determinism
/// fingerprint of a KV run.
void fill_rows(World& w, RunReport& report) {
  for (ProcessReport& row : w.reports) {
    if (!row.byzantine) {
      std::ostringstream os;
      for (const Group& g : w.groups) {
        const Member& m = g.members[row.id - 1];
        const Slot slots = m.replica->log().applied_len();
        const smr::SlotStats& stats = m.replica->log().stats();
        row.decided_at = std::max(row.decided_at, stats.last_apply_at);
        if (!g.config) row.decided = row.decided || slots > 0;
        if (w.cfg.kv.enabled) {
          os << (&g == &w.groups.front() ? "" : "|") << g.label
             << ":slots=" << slots << ",h=" << std::hex << kv_digest(g, m)
             << std::dec;
          continue;
        }
        row.log = log_of(m);
        row.fast_path =
            slots > 0 && stats.fast_slots + stats.noop_slots >= slots;
        std::string joined;
        for (const auto& c : row.log) {
          if (!joined.empty()) joined += '|';
          joined += c;
        }
        os << joined;
      }
      row.decision = os.str();
    }
    report.processes.push_back(row);
  }
}

/// SMR and KV modes: build the groups, drive the workload (SMR: every
/// correct replica submits `smr.commands`; KV: the client workload and any
/// reconfiguration plan) under the fault plan, run to quiescence and roll
/// up the report.
RunReport run_replicated(World& w) {
  const ClusterConfig& config = w.cfg;
  const bool kv = config.kv.enabled;
  const std::size_t shards = std::max<std::size_t>(1, config.kv.shards);
  // Under reconfiguration, build every group any scheduled change can
  // activate: split targets exist (idle) from the start, plus one extra
  // consensus group — the config group — on the next mux tag.
  std::size_t data_groups = shards;
  for (const ReconfigAction& a : config.kv.reconfig) {
    data_groups = std::max<std::size_t>(
        data_groups, std::max<std::size_t>(a.src, a.dst) + 1);
  }
  const bool reconfig = kv && !config.kv.reconfig.empty();
  if (kv && data_groups + (reconfig ? 1 : 0) > 256) {
    throw std::invalid_argument("KV mode: at most 256 groups (1-byte mux tag)");
  }
  if (reconfig && data_groups > kv::kMaxTableGroups) {
    throw std::invalid_argument("KV mode: reconfig plan exceeds group cap");
  }
  check_rejoin_support(
      config, kv ? config.kv.snapshot_interval : config.smr.snapshot_interval,
      kv ? "kv.snapshot_interval" : "smr.snapshot_interval");

  if (kv) {
    build_kv(w, replica_config(config.kv), shards, data_groups);
  } else {
    Group& g = add_group(w, "", 0, "", /*byz_target=*/true);
    g.rc = replica_config(config.smr);
    g.make_machine = [] { return std::make_unique<RecordingSm>(); };
    add_replicas(w, g);
  }

  for (const auto& mux : w.muxes) mux->start();
  for (Group& g : w.groups) {
    for (ProcessId p : all_processes(config.n)) {
      Member& m = g.members[p - 1];
      if (m.replica == nullptr) continue;
      m.engine->start();
      m.replica->start();
      if (kv) continue;
      for (std::size_t i = 0; i < config.smr.commands; ++i) {
        m.replica->submit(util::to_bytes(smr_command(p, i)));
      }
      m.replica->flush();
    }
  }
  if (kv) {
    w.kv_workload->start();
    if (reconfig) w.exec.spawn(run_reconfig_plan(&w, config.kv.reconfig));
  }
  spawn_byzantine(w, config);

  // Crash-and-rejoin: rebuild each rejoining process at its scheduled time.
  // The fresh incarnation submits nothing. In SMR mode commands its
  // predecessor queued but never got decided are simply lost, which
  // validity tolerates (applied ⊆ submitted); in KV mode the router's retry
  // loop + session dedup cover them (exactly-once still holds end to end).
  for (const auto& [p, t] : config.faults.process_rejoins) {
    w.exec.call_at(t, [&w, p = p] { rejoin_process(w, p); });
  }

  // ---- Run to quiescence: every client answered and the plan migrated
  // (KV), and every group settled. ----
  const auto done = [&w]() -> bool {
    if (w.kv_workload != nullptr && !w.kv_workload->done()) return false;
    if (w.migrator != nullptr &&
        (!w.reconfig_plan_done || !w.migrator->idle())) {
      return false;
    }
    return std::all_of(w.groups.begin(), w.groups.end(),
                       [&w](const Group& g) { return settled(w, g); });
  };
  w.exec.run_until(done, config.horizon);

  // ---- Report. ----
  RunReport report;
  report.termination = done();
  roll_up_replicas(w, report);
  if (kv) {
    check_stores(w, report);
  } else {
    check_logs(w, report);
  }
  fill_rows(w, report);
  return report;
}

/// Single-shot mode: one consensus instance, run as a one-slot group. Each
/// non-Byzantine process, in id order, starts its engine, opens slot 0 and
/// proposes its input there; its row records the engine's Decision. The
/// slot opens before the proposal's coroutine is spawned, so every instance
/// starts ahead of its own proposal, in process order.
RunReport run_single_shot(World& w) {
  const ClusterConfig& config = w.cfg;
  if (!config.faults.process_rejoins.empty()) {
    throw std::invalid_argument(
        "crash-and-rejoin requires SMR or KV mode (single-shot consensus has "
        "no log to catch up on)");
  }
  Group& g = add_group(w, "", 0, "", /*byz_target=*/true);
  for (ProcessId p : all_processes(config.n)) {
    if (config.faults.is_byzantine(p)) continue;
    core::ConsensusEngine& engine = *g.members[p - 1].engine;
    engine.start();
    engine.open_slot(0);
    w.exec.spawn(drive_decision(
        &w.reports[p - 1],
        engine.propose(0, util::to_bytes(input_of(config, p)))));
  }
  spawn_byzantine(w, config);
  w.exec.run_until([&w] { return w.done(); }, config.horizon);

  // ---- Report: the §3 verdicts over the correct processes' rows. ----
  RunReport report;
  report.processes = w.reports;
  std::set<std::string> inputs;
  for (ProcessId p : all_processes(config.n)) inputs.insert(input_of(config, p));
  for (const ProcessReport& row : w.reports) {
    if (row.byzantine) continue;
    if (row.decided) {
      report.first_decision_delay =
          std::min(report.first_decision_delay, row.decided_at);
      if (!report.decided_value.has_value()) {
        report.decided_value = row.decision;
      } else if (*report.decided_value != row.decision) {
        report.agreement = false;
      }
      if (!inputs.contains(row.decision)) report.validity = false;
    } else if (w.correct(row.id)) {
      report.termination = false;
    }
  }
  return report;
}

}  // namespace

RunReport run_cluster(const ClusterConfig& config) {
  World w(config);
  w.transports.resize(config.n);
  if (config.kv.enabled) w.muxes.resize(config.n);
  for (ProcessId p : all_processes(config.n)) connect_process(w, p);
  RunReport report = config.kv.enabled || config.smr.enabled
                         ? run_replicated(w)
                         : run_single_shot(w);
  fill_resource_counters(report, w);
  return report;
}

}  // namespace mnm::harness
