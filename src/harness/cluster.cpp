#include "src/harness/cluster.hpp"

#include <cassert>
#include <charconv>
#include <sstream>
#include <stdexcept>

#include <algorithm>
#include <set>

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
    case Algorithm::kFastPaxos: return "Fast Paxos (messages, phase-1 skip)";
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
    if (!tuner_trajectory.empty()) {
      os << " tuner_epochs=" << tuner_epochs << " tuner_w=" << tuner_window
         << " tuner_b=" << tuner_batch << " tune=" << tuner_trajectory;
    }
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
      if (p < 1 || p > static_cast<ProcessId>(cfg.n)) {
        throw std::invalid_argument("process_rejoins: unknown process");
      }
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
    // rejoin times, and the crash callbacks below (plus the rejoin rebuild
    // hooks in run_smr/run_kv) poke — so leadership waits need no fallback
    // timers at all.
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
        if (mid == 0 || mid > memories.size()) return;
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

  // Algorithm objects (only the relevant vectors are populated).
  std::vector<std::unique_ptr<core::NetTransport>> transports;
  std::vector<std::unique_ptr<core::TransportMux>> muxes;  // KV: 1 per process
  std::vector<std::unique_ptr<core::Paxos>> paxoses;
  std::vector<std::unique_ptr<core::DiskPaxos>> disk_paxoses;
  std::vector<std::unique_ptr<core::ProtectedMemoryPaxos>> pmps;
  std::vector<std::unique_ptr<core::AlignedPaxos>> aligneds;
  std::vector<std::unique_ptr<core::NebSlots>> neb_slots;
  std::vector<std::unique_ptr<core::RobustBackup>> robust_backups;
  std::vector<std::unique_ptr<core::FastRobustProcess>> fast_robusts;

  // SMR mode (index p - 1; Byzantine processes hold no replica).
  std::vector<std::unique_ptr<core::ConsensusEngine>> engines;
  std::vector<std::unique_ptr<RecordingSm>> state_machines;
  std::vector<std::unique_ptr<smr::Replica>> smr_replicas;
  std::shared_ptr<core::SlotRegions<core::FastRobustSlotRegions>> fr_regions;

  // KV mode (outer index = shard, inner index = p - 1; Byzantine processes
  // hold no replica). Declared after the transports/muxes they reference so
  // teardown runs replicas → engines → muxes → transports.
  std::vector<std::vector<std::unique_ptr<core::ConsensusEngine>>> kv_engines;
  std::vector<std::vector<std::unique_ptr<kv::StateMachine>>> kv_machines;
  std::vector<std::vector<std::unique_ptr<smr::Replica>>> kv_replicas;
  std::unique_ptr<kv::Router> kv_router;
  std::unique_ptr<kv::Workload> kv_workload;

  // Reconfiguration (kv.reconfig non-empty): the config group's objects
  // (index p - 1; Byzantine processes hold no replica), the cluster-level
  // table view and the migration driver. Destroyed migrator → view →
  // replicas → machines → engines by reverse declaration order.
  bool reconfig = false;
  bool reconfig_plan_done = false;
  kv::ShardTable initial_table;
  smr::ReplicaConfig cfg_rc;
  std::vector<std::unique_ptr<core::ConsensusEngine>> cfg_engines;
  std::vector<std::unique_ptr<reconfig::TableMachine>> cfg_machines;
  std::vector<std::unique_ptr<smr::Replica>> cfg_replicas;
  std::unique_ptr<reconfig::TableView> table_view;
  std::unique_ptr<reconfig::Migrator> migrator;
  std::vector<sim::Time> reconfig_flips;  // accepted-epoch arrival times

  // Crash-and-rejoin graveyard: a crashed incarnation's objects are parked
  // here when the process rebuilds, because coroutine frames owned by the
  // executor still reference them — they must outlive the run (the executor
  // destroys parked frames at teardown without resuming them). Destroyed in
  // reverse declaration order: replicas → machines → engines → muxes →
  // transports, mirroring the live vectors.
  std::vector<std::unique_ptr<core::NetTransport>> retired_transports;
  std::vector<std::unique_ptr<core::TransportMux>> retired_muxes;
  std::vector<std::unique_ptr<core::ConsensusEngine>> retired_engines;
  std::vector<std::unique_ptr<RecordingSm>> retired_recording_sms;
  std::vector<std::unique_ptr<kv::StateMachine>> retired_kv_machines;
  std::vector<std::unique_ptr<reconfig::TableMachine>> retired_table_machines;
  std::vector<std::unique_ptr<smr::Replica>> retired_replicas;

  // Region ids + name prefixes used by Byzantine strategies (SMR mode
  // points them at slot 0's regions, KV mode at shard 0 / slot 0's).
  std::map<ProcessId, RegionId> neb_region_ids;
  RegionId cq_region_leader_ = 0;
  std::string neb_prefix = "neb";
  std::string cq_prefix = "cq";
};

// --- Driver coroutines (parameters, not captures). ---

sim::Task<void> drive_bytes(sim::Executor* exec, ProcessReport* row,
                            sim::Task<Bytes> proposal) {
  const Bytes v = co_await std::move(proposal);
  row->decided = true;
  row->decision = util::to_string(v);
  row->decided_at = exec->now();
}

sim::Task<void> drive_fast_robust(ProcessReport* row,
                                  sim::Task<core::FastRobustOutcome> proposal) {
  const core::FastRobustOutcome out = co_await std::move(proposal);
  row->decided = true;
  row->decision = util::to_string(out.value);
  row->decided_at = out.decided_at;
  row->fast_path = out.fast;
}

// --- Byzantine strategies. ---

sim::Task<void> byz_neb_equivocate(World* w, ProcessId p) {
  // Write a *different* validly-signed first message to each memory's copy
  // of our own NEB slot — the equivocation Algorithm 2 must suppress.
  const std::string slot =
      w->neb_prefix + "/" + std::to_string(p) + "/1/" + std::to_string(p);
  for (std::size_t i = 0; i < w->memories.size(); ++i) {
    const Bytes msg = util::to_bytes("equivocation-" + std::to_string(i));
    const crypto::Signature sig =
        w->signers[p - 1].sign(core::neb_signing_bytes(1, msg));
    // Region id for p's NEB region: created in process order after any
    // algorithm-specific regions; the harness stores it in neb_region_ids.
    (void)co_await w->memories[i]->write(p, w->neb_region_ids.at(p), slot,
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
    (void)co_await w->memories[i]->write(p, w->cq_region_leader_,
                                         w->cq_prefix + "/leader/value",
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
        p, w->cq_region_leader_, w->cq_prefix + "/leader/value",
        core::encode_leader_blob(payload, blob_sig));
  }
  co_return;
}

sim::Task<void> byz_garbage(World* w, ProcessId p) {
  // Malformed NEB slot + junk on every message tag others listen on.
  const std::string slot =
      w->neb_prefix + "/" + std::to_string(p) + "/1/" + std::to_string(p);
  for (std::size_t i = 0; i < w->memories.size(); ++i) {
    (void)co_await w->memories[i]->write(p, w->neb_region_ids.at(p), slot,
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
// SMR mode: one smr::Replica per correct process over the algorithm's
// ConsensusEngine adapter.
// ---------------------------------------------------------------------------

/// End-of-run resource counters shared by every run mode (single-shot, SMR,
/// KV) — one definition, so a counter added to RunReport cannot silently
/// stay zero in one mode.
void fill_resource_counters(RunReport& report, World& w,
                            const ClusterConfig& config) {
  report.messages_sent = w.network.messages_sent();
  if (!config.verbs_backend) {
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
    }
  }
  report.signatures = w.keystore.signatures_made();
  report.verifications = w.keystore.verifications_made();
  report.events = w.exec.events_processed();
}

void add_tsend_stats(RunReport& report, const core::trusted::TsendStats& s) {
  report.tsend_deliveries += s.deliveries;
  report.history_entries_decoded += s.entries_decoded;
  report.history_entries_skipped += s.entries_skipped;
}

void finish_tsend_stats(RunReport& report) {
  if (report.tsend_deliveries > 0) {
    report.decoded_per_delivery =
        static_cast<double>(report.history_entries_decoded) /
        static_cast<double>(report.tsend_deliveries);
  }
}

void add_recovery_counters(RunReport& report, const smr::RunStats& s) {
  report.snapshots_taken += s.snapshots_taken;
  report.snapshots_installed += s.snapshots_installed;
  report.slots_truncated += s.slots_truncated;
  report.catchup_bytes += s.catchup_bytes;
}

/// Crash-and-rejoin is limited to the message-based engines: memory-routed
/// algorithms park reader coroutines inside crashed ProcessViews and have no
/// catch-up channel, while Paxos engines rebuild cleanly over a fresh
/// NetTransport. And without a snapshot cadence peers have nothing to serve
/// a rejoiner, so the run would never converge — reject up front.
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

/// Rebuild process `p` as a fresh SMR incarnation: quarantine the crashed
/// objects (live coroutine frames still reference them), free the network
/// inbox, and start a recovering replica over a brand-new transport/engine.
/// Volatile state is wiped by construction — everything the new incarnation
/// knows arrives through snapshot + log catch-up from its peers.
void rejoin_smr_process(World& w, const smr::ReplicaConfig& rc, ProcessId p) {
  if (w.smr_replicas[p - 1] != nullptr) w.smr_replicas[p - 1]->log().halt();
  w.transports[p - 1]->sever();
  w.retired_replicas.push_back(std::move(w.smr_replicas[p - 1]));
  w.retired_recording_sms.push_back(std::move(w.state_machines[p - 1]));
  w.retired_engines.push_back(std::move(w.engines[p - 1]));
  w.retired_transports.push_back(std::move(w.transports[p - 1]));

  *w.alive[p - 1] = true;
  w.network.revive(p);
  core::PaxosConfig pc;
  pc.n = w.cfg.n;
  pc.skip_phase1_for_p1 = (w.cfg.algo == Algorithm::kFastPaxos);
  w.transports[p - 1] = std::make_unique<core::NetTransport>(
      w.exec, w.network, p, /*tag=*/100);
  w.engines[p - 1] = std::make_unique<core::PaxosEngine>(
      w.exec, *w.transports[p - 1], *w.omega, pc);
  w.state_machines[p - 1] = std::make_unique<RecordingSm>();
  smr::ReplicaConfig rejoin_rc = rc;
  rejoin_rc.log.recover = true;
  w.smr_replicas[p - 1] = std::make_unique<smr::Replica>(
      w.exec, *w.engines[p - 1], *w.omega, *w.state_machines[p - 1],
      rejoin_rc);
  w.engines[p - 1]->start();
  w.smr_replicas[p - 1]->start();
  // Leadership may now revert to this (lower-id) process; wake the waiters.
  w.omega->poke();
}

reconfig::TableMachine::TableSink table_sink_for(World& w);

/// KV-mode twin of rejoin_smr_process: one fresh engine + machine + replica
/// per shard (plus the config group, under reconfiguration) over a rebuilt
/// base transport/mux, rebound into the router so client replies flow from
/// the new incarnation.
void rejoin_kv_process(World& w, const smr::ReplicaConfig& rc, ProcessId p) {
  const std::size_t shards = w.kv_engines.size();
  for (std::size_t g = 0; g < shards; ++g) {
    if (w.kv_replicas[g][p - 1] != nullptr) {
      w.kv_replicas[g][p - 1]->log().halt();
    }
    w.kv_router->rebind(g, p, nullptr, nullptr);
  }
  if (w.reconfig) {
    if (w.cfg_replicas[p - 1] != nullptr) w.cfg_replicas[p - 1]->log().halt();
    w.migrator->rebind_config(p, nullptr);
  }
  w.transports[p - 1]->sever();
  for (std::size_t g = 0; g < shards; ++g) {
    w.retired_replicas.push_back(std::move(w.kv_replicas[g][p - 1]));
    w.retired_kv_machines.push_back(std::move(w.kv_machines[g][p - 1]));
    w.retired_engines.push_back(std::move(w.kv_engines[g][p - 1]));
  }
  if (w.reconfig) {
    w.retired_replicas.push_back(std::move(w.cfg_replicas[p - 1]));
    w.retired_table_machines.push_back(std::move(w.cfg_machines[p - 1]));
    w.retired_engines.push_back(std::move(w.cfg_engines[p - 1]));
  }
  w.retired_muxes.push_back(std::move(w.muxes[p - 1]));
  w.retired_transports.push_back(std::move(w.transports[p - 1]));

  *w.alive[p - 1] = true;
  w.network.revive(p);
  w.transports[p - 1] = std::make_unique<core::NetTransport>(
      w.exec, w.network, p, /*tag=*/100);
  w.muxes[p - 1] = std::make_unique<core::TransportMux>(
      w.exec, *w.transports[p - 1]);
  core::PaxosConfig pc;
  pc.n = w.cfg.n;
  pc.skip_phase1_for_p1 = (w.cfg.algo == Algorithm::kFastPaxos);
  smr::ReplicaConfig rejoin_rc = rc;
  rejoin_rc.log.recover = true;
  for (std::size_t g = 0; g < shards; ++g) {
    const std::uint8_t tag = static_cast<std::uint8_t>(g);
    w.kv_engines[g][p - 1] = std::make_unique<core::PaxosEngine>(
        w.exec, w.muxes[p - 1]->sub(tag), *w.omega, pc);
    w.kv_machines[g][p - 1] = std::make_unique<kv::StateMachine>();
    if (w.reconfig) {
      // The fresh machine starts partitioned at the *initial* table: a
      // peer's snapshot (or the replayed admin ops, when no snapshot was
      // cut yet) carries it to the current epoch's ownership.
      w.kv_machines[g][p - 1]->configure_partition(
          static_cast<std::uint32_t>(g), w.initial_table);
    }
    w.kv_replicas[g][p - 1] = std::make_unique<smr::Replica>(
        w.exec, *w.kv_engines[g][p - 1], *w.omega, *w.kv_machines[g][p - 1],
        rejoin_rc);
  }
  if (w.reconfig) {
    const std::uint8_t cfg_tag = static_cast<std::uint8_t>(shards);
    w.cfg_engines[p - 1] = std::make_unique<core::PaxosEngine>(
        w.exec, w.muxes[p - 1]->sub(cfg_tag), *w.omega, pc);
    w.cfg_machines[p - 1] =
        std::make_unique<reconfig::TableMachine>(w.initial_table);
    // The sink re-attaches: replayed old epochs are dropped by the view,
    // so a rejoiner into a post-split world installs the table without
    // re-announcing flips.
    w.cfg_machines[p - 1]->set_table_sink(table_sink_for(w));
    smr::ReplicaConfig cfg_rejoin_rc = w.cfg_rc;
    cfg_rejoin_rc.log.recover = true;
    w.cfg_replicas[p - 1] = std::make_unique<smr::Replica>(
        w.exec, *w.cfg_engines[p - 1], *w.omega, *w.cfg_machines[p - 1],
        cfg_rejoin_rc);
  }
  w.muxes[p - 1]->start();
  for (std::size_t g = 0; g < shards; ++g) {
    w.kv_engines[g][p - 1]->start();
    w.kv_replicas[g][p - 1]->start();
    w.kv_router->rebind(g, p, w.kv_replicas[g][p - 1].get(),
                        w.kv_machines[g][p - 1].get());
  }
  if (w.reconfig) {
    w.cfg_engines[p - 1]->start();
    w.cfg_replicas[p - 1]->start();
    w.migrator->rebind_config(p, w.cfg_replicas[p - 1].get());
  }
  w.omega->poke();
}

RunReport run_smr(World& w, const ClusterConfig& config) {
  const std::size_t n = config.n;
  const auto all = all_processes(n);
  const std::size_t fP = n > 0 ? (n - 1) / 2 : 0;

  // ---- Build one engine per process over one shared transport/memory set. ----
  switch (config.algo) {
    case Algorithm::kPaxos:
    case Algorithm::kFastPaxos: {
      core::PaxosConfig pc;
      pc.n = n;
      pc.skip_phase1_for_p1 = (config.algo == Algorithm::kFastPaxos);
      for (ProcessId p : all) {
        w.transports.push_back(std::make_unique<core::NetTransport>(
            w.exec, w.network, p, /*tag=*/100));
        w.engines.push_back(std::make_unique<core::PaxosEngine>(
            w.exec, *w.transports.back(), *w.omega, pc));
      }
      break;
    }

    case Algorithm::kDiskPaxos: {
      auto pool = std::make_shared<core::SlotRegions<RegionId>>(
          [wp = &w, n](Slot s) {
            RegionId region = 0;
            wp->for_each_backing([&](auto& m) {
              region = core::make_disk_region(m, n, core::slot_ns(s, "dp"));
            });
            return region;
          });
      core::DiskPaxosConfig dc;
      dc.n = n;
      for (ProcessId p : all) {
        w.transports.push_back(std::make_unique<core::NetTransport>(
            w.exec, w.network, p, /*tag=*/910));
        w.engines.push_back(std::make_unique<core::DiskPaxosEngine>(
            w.exec, w.view_ptrs[p - 1], *w.transports.back(), *w.omega, pool,
            dc));
      }
      break;
    }

    case Algorithm::kProtectedMemoryPaxos:
    case Algorithm::kAlignedPaxos: {
      auto pool = std::make_shared<core::SlotRegions<RegionId>>(
          [wp = &w, n](Slot s) {
            RegionId region = 0;
            wp->for_each_backing([&](auto& m) {
              region = core::make_pmp_region(m, n, kLeaderP1,
                                             core::slot_ns(s, "pmp"));
            });
            return region;
          });
      for (ProcessId p : all) {
        w.transports.push_back(std::make_unique<core::NetTransport>(
            w.exec, w.network, p,
            /*tag=*/config.algo == Algorithm::kAlignedPaxos ? 920 : 900));
        if (config.algo == Algorithm::kAlignedPaxos) {
          core::AlignedPaxosConfig ac;
          ac.n = n;
          w.engines.push_back(std::make_unique<core::AlignedEngine>(
              w.exec, w.view_ptrs[p - 1], *w.transports.back(), *w.omega, pool,
              ac));
        } else {
          core::PmpConfig pc;
          pc.n = n;
          w.engines.push_back(std::make_unique<core::PmpEngine>(
              w.exec, w.view_ptrs[p - 1], *w.transports.back(), *w.omega, pool,
              pc));
        }
      }
      break;
    }

    case Algorithm::kFastRobust: {
      auto pool = std::make_shared<core::SlotRegions<core::FastRobustSlotRegions>>(
          [wp = &w, n](Slot s) {
            core::FastRobustSlotRegions out;
            wp->for_each_backing([&](auto& m) {
              out = core::make_fast_robust_slot_regions(m, n, s);
            });
            return out;
          });
      w.fr_regions = pool;
      // Byzantine region attacks target the first slot's regions.
      w.neb_prefix = core::slot_ns(0, "neb");
      w.cq_prefix = core::slot_ns(0, "cq");
      if (!config.faults.byzantine.empty()) {
        const core::FastRobustSlotRegions& r0 = pool->get(0);
        w.neb_region_ids = r0.neb;
        w.cq_region_leader_ = r0.cq.leader;
      }

      core::FastRobustConfig fc;
      fc.n = n;
      fc.f = fP;
      fc.cheap.n = n;
      fc.cheap.timeout = config.cq_timeout;
      fc.neb.n = n;
      fc.paxos.n = n;
      fc.paxos.round_timeout = 150 * n;  // backup runs over NEB (see above)
      fc.paxos.retry_backoff = 40;
      for (ProcessId p : all) {
        w.engines.push_back(std::make_unique<core::FastRobustEngine>(
            w.exec, w.view_ptrs[p - 1], pool, w.keystore, w.signers[p - 1],
            *w.omega, fc));
      }
      break;
    }

    case Algorithm::kRobustBackup:
      throw std::invalid_argument(
          "SMR mode: RobustBackup has no ConsensusEngine adapter (use "
          "FastRobust, whose backup path is RobustBackup(Paxos))");
  }

  // ---- Replicas + workload. ----
  // Byzantine engines route everything through memories, where passive
  // replicas could never be heard — every correct replica proposes each slot.
  const bool all_propose = (config.algo == Algorithm::kFastRobust);
  check_rejoin_support(config, config.smr.snapshot_interval,
                       "smr.snapshot_interval");
  smr::ReplicaConfig rc;
  rc.batch = config.smr.batch;
  rc.log.window = config.smr.window;
  rc.log.all_propose = all_propose;
  rc.log.snapshot_interval = config.smr.snapshot_interval;
  rc.tune.enabled = config.smr.auto_tune;  // Replica forces off if all_propose
  rc.tune.max_window = config.smr.max_window;
  rc.tune.max_batch = config.smr.max_batch;
  // Same clamp rule as smr::Replica (batch=0 would divide by zero here).
  const std::size_t batch = std::max<std::size_t>(1, config.smr.batch);
  const Slot fixed_slots = (config.smr.commands + batch - 1) / batch;
  if (all_propose) rc.log.fixed_slots = fixed_slots;

  for (ProcessId p : all) {
    w.state_machines.push_back(std::make_unique<RecordingSm>());
    if (config.faults.is_byzantine(p)) {
      w.smr_replicas.push_back(nullptr);
      continue;
    }
    w.smr_replicas.push_back(std::make_unique<smr::Replica>(
        w.exec, *w.engines[p - 1], *w.omega, *w.state_machines.back(), rc));
  }
  for (ProcessId p : all) {
    if (config.faults.is_byzantine(p)) continue;
    w.engines[p - 1]->start();
    w.smr_replicas[p - 1]->start();
    for (std::size_t i = 0; i < config.smr.commands; ++i) {
      w.smr_replicas[p - 1]->submit(util::to_bytes(smr_command(p, i)));
    }
    w.smr_replicas[p - 1]->flush();
  }

  spawn_byzantine(w, config);

  // Crash-and-rejoin: rebuild each rejoining process at its scheduled time.
  // The fresh incarnation submits nothing — commands its predecessor queued
  // but never got decided are simply lost, which validity tolerates (applied
  // ⊆ submitted); its job is to catch back up and stay in lockstep.
  for (const auto& [p, t] : config.faults.process_rejoins) {
    w.exec.call_at(t, [&w, rc, p = p] { rejoin_smr_process(w, rc, p); });
  }

  // ---- Run to quiescence. ----
  // Leader mode: the current leader drained its queue and applied everything
  // it proposed, and every correct replica caught up to the same log length.
  // All-propose mode: every correct replica applied all fixed slots.
  const auto done = [&]() -> bool {
    if (all_propose) {
      for (ProcessId p : all) {
        if (!w.correct(p)) continue;
        if (w.smr_replicas[p - 1]->log().applied_len() != fixed_slots) {
          return false;
        }
      }
      return true;
    }
    const ProcessId leader = w.omega->leader();
    if (leader < 1 || leader > n || !w.correct(leader)) return false;
    const smr::Replica& lr = *w.smr_replicas[leader - 1];
    if (!lr.idle()) return false;
    const Slot len = lr.log().applied_len();
    for (ProcessId p : all) {
      if (!w.correct(p)) continue;
      if (w.smr_replicas[p - 1]->log().applied_len() != len) return false;
    }
    return true;
  };
  w.exec.run_until(done, config.horizon);

  // ---- Report. ----
  RunReport report;
  report.termination = done();

  std::set<std::string> submitted;
  for (ProcessId p : all) {
    if (config.faults.is_byzantine(p)) continue;
    for (std::size_t i = 0; i < config.smr.commands; ++i) {
      submitted.insert(smr_command(p, i));
    }
  }

  std::vector<sim::Time> latencies;
  std::vector<sim::Time> queue_waits;
  std::uint64_t tuner_best_obs = 0;  // the busiest tuner = the leader's
  const std::vector<std::string>* reference_log = nullptr;
  for (ProcessId p : all) {
    auto& row = w.reports[p - 1];
    if (!row.byzantine && w.smr_replicas[p - 1] != nullptr) {
      const smr::Replica& replica = *w.smr_replicas[p - 1];
      const smr::RunStats stats = replica.stats();
      row.log = w.state_machines[p - 1]->log;
      row.decided = stats.slots_applied > 0;
      row.decided_at = stats.last_apply_at;
      row.fast_path = stats.slots_applied > 0 &&
                      stats.fast_slots + stats.noop_slots >= stats.slots_applied;
      std::string joined;
      for (const auto& c : row.log) {
        if (!joined.empty()) joined += '|';
        joined += c;
      }
      row.decision = std::move(joined);

      if (w.correct(p)) {
        // Aggregate SMR metrics over correct replicas. fast-path is a
        // proposer-local property (learners decide via DECIDE), so take the
        // max rather than the last replica's count. At equal log length
        // prefer the fuller command count: a rejoined replica's log-derived
        // stats exclude slots a snapshot install covered, so a survivor's
        // accounting is the exact one.
        if (stats.slots_applied > report.slots_applied ||
            (stats.slots_applied == report.slots_applied &&
             stats.commands_applied > report.commands_applied)) {
          report.slots_applied = stats.slots_applied;
          report.commands_applied = stats.commands_applied;
          report.noop_slots = stats.noop_slots;
        }
        report.fast_slots = std::max(report.fast_slots, stats.fast_slots);
        const std::vector<sim::Time> won = smr::won_slot_latencies(replica.log());
        latencies.insert(latencies.end(), won.begin(), won.end());
        const std::vector<sim::Time> qw = smr::queue_wait_latencies(replica.log());
        queue_waits.insert(queue_waits.end(), qw.begin(), qw.end());
        report.occupancy_slots += stats.occupancy_slots;
        report.occupancy_limit += stats.occupancy_limit;
        add_recovery_counters(report, stats);
        if (replica.tuner().enabled() && replica.tuner().observations() > 0) {
          report.tuner_epochs += stats.tuner_epochs;
          if (replica.tuner().observations() > tuner_best_obs) {
            tuner_best_obs = replica.tuner().observations();
            report.tuner_window = stats.tuner_window;
            report.tuner_batch = stats.tuner_batch;
          }
          if (!report.tuner_trajectory.empty()) report.tuner_trajectory += '|';
          report.tuner_trajectory +=
              "p" + std::to_string(p) + ":" + stats.tuner_trajectory;
        }
        // Slot 0's record only survives on replicas that never compacted it
        // away (records_base() > 0 means the first decision time was folded).
        const auto& records = replica.log().records();
        if (replica.log().applied_len() > 0 &&
            replica.log().records_base() == 0 && !records.empty()) {
          report.first_decision_delay =
              std::min(report.first_decision_delay, records[0].decided_at);
          report.first_correct_decision_delay = std::min(
              report.first_correct_decision_delay, records[0].decided_at);
        }
        // Invariants: identical logs (SMR agreement), applied ⊆ submitted
        // (SMR validity).
        if (reference_log == nullptr) {
          reference_log = &w.state_machines[p - 1]->log;
        } else if (*reference_log != w.state_machines[p - 1]->log) {
          report.agreement = false;
        }
        for (const auto& c : w.state_machines[p - 1]->log) {
          if (!submitted.contains(c)) report.validity = false;
        }
      }
    }
    report.processes.push_back(row);
  }
  if (report.slots_applied > 0 && reference_log != nullptr &&
      !reference_log->empty()) {
    report.decided_value = reference_log->front();
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

  // Retired incarnations did real recovery work too (a first rejoiner may
  // itself later serve catch-up before a second crash) — fold their counters
  // in so the report covers every incarnation, per the RunReport contract.
  for (const auto& retired : w.retired_replicas) {
    if (retired != nullptr) add_recovery_counters(report, retired->stats());
  }

  fill_resource_counters(report, w, config);
  if (report.slots_applied > 0) {
    report.events_per_slot = static_cast<double>(report.events) /
                             static_cast<double>(report.slots_applied);
  }
  if (config.algo == Algorithm::kFastRobust) {
    for (const auto& engine : w.engines) {
      add_tsend_stats(report, static_cast<const core::FastRobustEngine&>(*engine)
                                  .tsend_stats());
    }
    finish_tsend_stats(report);
  }
  return report;
}

// ---------------------------------------------------------------------------
// KV mode: `shards` independent smr::Replica groups over per-shard engine
// instances — message traffic on a TransportMux sub per shard (each with its
// own SlotTransportHub slot namespace inside the engine), memory traffic
// under "g<shard>/"-prefixed slot regions — with a kv::Router providing
// exactly-once client sessions and a kv::Workload driving closed-loop
// clients.
// ---------------------------------------------------------------------------

/// Build one consensus group's engine for every process: message engines
/// run over the per-process mux's sub-transport for `tag`; memory engines
/// get a SlotRegions pool whose names live under `ns(base)`. Data shards
/// and the reconfiguration config group differ only in tag and namespace.
/// `byz_target` points the Byzantine region attacks at this group's slot 0.
void build_kv_group(World& w, const ClusterConfig& config, std::uint8_t tag,
                    const std::function<std::string(const char*)>& ns,
                    std::vector<std::unique_ptr<core::ConsensusEngine>>& engines,
                    bool byz_target) {
  const std::size_t n = config.n;
  const std::size_t fP = n > 0 ? (n - 1) / 2 : 0;

  switch (config.algo) {
    case Algorithm::kPaxos:
    case Algorithm::kFastPaxos: {
      core::PaxosConfig pc;
      pc.n = n;
      pc.skip_phase1_for_p1 = (config.algo == Algorithm::kFastPaxos);
      for (ProcessId p : all_processes(n)) {
        engines.push_back(std::make_unique<core::PaxosEngine>(
            w.exec, w.muxes[p - 1]->sub(tag), *w.omega, pc));
      }
      break;
    }

    case Algorithm::kDiskPaxos: {
      auto pool = std::make_shared<core::SlotRegions<RegionId>>(
          [wp = &w, n, prefix = ns("dp")](Slot s) {
            RegionId region = 0;
            wp->for_each_backing([&](auto& m) {
              region = core::make_disk_region(m, n,
                                              core::slot_ns(s, prefix));
            });
            return region;
          });
      core::DiskPaxosConfig dc;
      dc.n = n;
      for (ProcessId p : all_processes(n)) {
        engines.push_back(std::make_unique<core::DiskPaxosEngine>(
            w.exec, w.view_ptrs[p - 1], w.muxes[p - 1]->sub(tag), *w.omega,
            pool, dc, ns("dp")));
      }
      break;
    }

    case Algorithm::kProtectedMemoryPaxos:
    case Algorithm::kAlignedPaxos: {
      auto pool = std::make_shared<core::SlotRegions<RegionId>>(
          [wp = &w, n, prefix = ns("pmp")](Slot s) {
            RegionId region = 0;
            wp->for_each_backing([&](auto& m) {
              region = core::make_pmp_region(m, n, kLeaderP1,
                                             core::slot_ns(s, prefix));
            });
            return region;
          });
      for (ProcessId p : all_processes(n)) {
        if (config.algo == Algorithm::kAlignedPaxos) {
          core::AlignedPaxosConfig ac;
          ac.n = n;
          engines.push_back(std::make_unique<core::AlignedEngine>(
              w.exec, w.view_ptrs[p - 1], w.muxes[p - 1]->sub(tag), *w.omega,
              pool, ac, ns("pmp")));
        } else {
          core::PmpConfig pc;
          pc.n = n;
          engines.push_back(std::make_unique<core::PmpEngine>(
              w.exec, w.view_ptrs[p - 1], w.muxes[p - 1]->sub(tag), *w.omega,
              pool, pc, ns("pmp")));
        }
      }
      break;
    }

    case Algorithm::kFastRobust: {
      const std::string cq_prefix = ns("cq");
      const std::string neb_prefix = ns("neb");
      auto pool = std::make_shared<core::SlotRegions<core::FastRobustSlotRegions>>(
          [wp = &w, n, cq_prefix, neb_prefix](Slot s) {
            core::FastRobustSlotRegions out;
            wp->for_each_backing([&](auto& m) {
              out = core::make_fast_robust_slot_regions(m, n, s, cq_prefix,
                                                        neb_prefix);
            });
            return out;
          });
      if (byz_target) {
        // Byzantine region attacks target the first shard's first slot.
        w.neb_prefix = core::slot_ns(0, neb_prefix);
        w.cq_prefix = core::slot_ns(0, cq_prefix);
        if (!config.faults.byzantine.empty()) {
          const core::FastRobustSlotRegions& r0 = pool->get(0);
          w.neb_region_ids = r0.neb;
          w.cq_region_leader_ = r0.cq.leader;
        }
      }

      core::FastRobustConfig fc;
      fc.n = n;
      fc.f = fP;
      fc.cheap.n = n;
      fc.cheap.timeout = config.cq_timeout;
      fc.neb.n = n;
      fc.paxos.n = n;
      fc.paxos.round_timeout = 150 * n;  // backup runs over NEB
      fc.paxos.retry_backoff = 40;
      for (ProcessId p : all_processes(n)) {
        engines.push_back(std::make_unique<core::FastRobustEngine>(
            w.exec, w.view_ptrs[p - 1], pool, w.keystore, w.signers[p - 1],
            *w.omega, fc, cq_prefix, neb_prefix));
      }
      break;
    }

    case Algorithm::kRobustBackup:
      throw std::invalid_argument(
          "KV mode: RobustBackup has no ConsensusEngine adapter (use "
          "FastRobust, whose backup path is RobustBackup(Paxos))");
  }
}

/// Build data shard `g` (mux tag g, "g<g>/" region namespace).
void build_kv_shard(World& w, const ClusterConfig& config, std::size_t g) {
  build_kv_group(
      w, config, static_cast<std::uint8_t>(g),
      [g](const char* base) { return kv::shard_ns(g, base); },
      w.kv_engines[g], /*byz_target=*/g == 0);
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

RunReport run_kv(World& w, const ClusterConfig& config) {
  const std::size_t n = config.n;
  const auto all = all_processes(n);
  const std::size_t shards = std::max<std::size_t>(1, config.kv.shards);
  const bool fan_out = (config.algo == Algorithm::kFastRobust);
  const bool reconfig = !config.kv.reconfig.empty();
  // Under reconfiguration, build every group any scheduled change can
  // activate: split targets exist (idle) from the start, plus one extra
  // consensus group — the config group — on the next mux tag.
  std::size_t groups = shards;
  for (const ReconfigAction& a : config.kv.reconfig) {
    groups = std::max<std::size_t>(
        groups, std::max<std::size_t>(a.src, a.dst) + 1);
  }
  if (groups + (reconfig ? 1 : 0) > 256) {
    throw std::invalid_argument("KV mode: at most 256 groups (1-byte mux tag)");
  }
  if (reconfig && groups > kv::kMaxTableGroups) {
    throw std::invalid_argument("KV mode: reconfig plan exceeds group cap");
  }
  check_rejoin_support(config, config.kv.snapshot_interval,
                       "kv.snapshot_interval");

  // One base transport + mux per process; shard g's engine runs over sub(g).
  for (ProcessId p : all) {
    w.transports.push_back(std::make_unique<core::NetTransport>(
        w.exec, w.network, p, /*tag=*/100));
    w.muxes.push_back(
        std::make_unique<core::TransportMux>(w.exec, *w.transports.back()));
  }

  w.kv_engines.resize(groups);
  w.kv_machines.resize(groups);
  w.kv_replicas.resize(groups);
  for (std::size_t g = 0; g < groups; ++g) build_kv_shard(w, config, g);
  if (reconfig) {
    w.reconfig = true;
    w.initial_table = kv::ShardTable::initial(shards);
    w.table_view =
        std::make_unique<reconfig::TableView>(w.exec, w.initial_table);
    build_kv_group(
        w, config, static_cast<std::uint8_t>(groups),
        [](const char* base) { return kv::config_ns(base); }, w.cfg_engines,
        /*byz_target=*/false);
  }

  // Replicas: one per (shard, correct process); Byzantine processes run none.
  smr::ReplicaConfig rc;
  rc.batch = config.kv.batch;
  rc.log.window = config.kv.window;
  rc.log.all_propose = fan_out;
  rc.log.snapshot_interval = config.kv.snapshot_interval;
  rc.tune.enabled = config.kv.auto_tune;  // Replica forces off if fan_out
  rc.tune.max_window = config.kv.max_window;
  rc.tune.max_batch = config.kv.max_batch;
  // Reconfiguration runs serve range-snapshot drains over the control
  // channel; static runs keep the flag off so their event traces are
  // byte-identical to before the subsystem existed.
  rc.log.serve_ranges = reconfig;
  if (fan_out) {
    // The workload is dynamic (client-driven), so there is no slot target to
    // fill with no-ops: replicas wait for fanned-out payloads — which land
    // on every correct queue in the same tick — and fixed_slots is only the
    // hub-sized safety cap.
    rc.log.fixed_slots = Slot{1} << 20;
    rc.log.noop_fillers = false;
  }
  for (std::size_t g = 0; g < groups; ++g) {
    for (ProcessId p : all) {
      w.kv_machines[g].push_back(std::make_unique<kv::StateMachine>());
      if (reconfig) {
        w.kv_machines[g].back()->configure_partition(
            static_cast<std::uint32_t>(g), w.initial_table);
      }
      if (config.faults.is_byzantine(p)) {
        w.kv_replicas[g].push_back(nullptr);
        continue;
      }
      w.kv_replicas[g].push_back(std::make_unique<smr::Replica>(
          w.exec, *w.kv_engines[g][p - 1], *w.omega, *w.kv_machines[g].back(),
          rc));
    }
  }
  if (reconfig) {
    // Config group: one TableMachine replica per correct process. Config
    // changes are rare and tiny — batch of 1, no range serving, but the
    // same snapshot cadence so rejoiners can catch up the table history.
    w.cfg_rc = rc;
    w.cfg_rc.batch = 1;
    w.cfg_rc.log.serve_ranges = false;
    w.cfg_rc.tune.enabled = false;
    for (ProcessId p : all) {
      w.cfg_machines.push_back(
          std::make_unique<reconfig::TableMachine>(w.initial_table));
      w.cfg_machines.back()->set_table_sink(table_sink_for(w));
      if (config.faults.is_byzantine(p)) {
        w.cfg_replicas.push_back(nullptr);
        continue;
      }
      w.cfg_replicas.push_back(std::make_unique<smr::Replica>(
          w.exec, *w.cfg_engines[p - 1], *w.omega, *w.cfg_machines.back(),
          w.cfg_rc));
    }
  }

  // Router + workload over every shard's replica group.
  std::vector<kv::ShardBackend> backends(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    backends[g].fan_out = fan_out;
    for (ProcessId p : all) {
      backends[g].replicas.push_back(w.kv_replicas[g][p - 1].get());
      backends[g].machines.push_back(
          config.faults.is_byzantine(p) ? nullptr
                                        : w.kv_machines[g][p - 1].get());
    }
  }
  kv::RouterConfig router_cfg;
  router_cfg.retry_timeout = config.kv.retry_timeout;
  router_cfg.adaptive_retry = config.kv.adaptive_retry;
  // Signed-command mode: the router registers every session's client
  // identity in the run's shared keystore and arms verification on every
  // backend machine (client ids live at kClientSignerBase, disjoint from
  // the replica processes registered above).
  router_cfg.keystore = config.kv.sign_commands ? &w.keystore : nullptr;
  w.kv_router = std::make_unique<kv::Router>(
      w.exec, *w.omega, kv::ShardMap(shards), std::move(backends), router_cfg,
      w.table_view.get());
  if (reconfig) {
    std::vector<smr::Replica*> cfg_backend;
    for (ProcessId p : all) cfg_backend.push_back(w.cfg_replicas[p - 1].get());
    w.migrator = std::make_unique<reconfig::Migrator>(
        w.exec, *w.omega, *w.table_view, std::move(cfg_backend), fan_out,
        *w.kv_router);
  }
  kv::WorkloadConfig wc;
  wc.clients = config.kv.clients;
  wc.ops_per_client = config.kv.ops_per_client;
  wc.mix = config.kv.mix;
  wc.dist = config.kv.dist;
  wc.keys = config.kv.keys;
  wc.seed = config.seed;
  wc.txn_fraction = config.kv.txn_fraction;
  wc.txn_accounts = config.kv.txn_accounts;
  wc.accounts = config.kv.accounts;
  wc.txn_zipf_theta = config.kv.txn_zipf_theta;
  wc.txn_crash_client = config.kv.txn_crash_client;
  wc.txn_crash_txn = config.kv.txn_crash_txn;
  wc.txn_crash_records = config.kv.txn_crash_records;
  wc.txn_crash_pause = config.kv.txn_crash_pause;
  wc.txn_crash_conflict = config.kv.txn_crash_conflict;
  w.kv_workload = std::make_unique<kv::Workload>(w.exec, *w.kv_router, wc);

  for (ProcessId p : all) w.muxes[p - 1]->start();
  for (std::size_t g = 0; g < groups; ++g) {
    for (ProcessId p : all) {
      if (config.faults.is_byzantine(p)) continue;
      w.kv_engines[g][p - 1]->start();
      w.kv_replicas[g][p - 1]->start();
    }
  }
  if (reconfig) {
    for (ProcessId p : all) {
      if (config.faults.is_byzantine(p)) continue;
      w.cfg_engines[p - 1]->start();
      w.cfg_replicas[p - 1]->start();
    }
  }
  w.kv_workload->start();
  if (reconfig) w.exec.spawn(run_reconfig_plan(&w, config.kv.reconfig));
  spawn_byzantine(w, config);

  // Crash-and-rejoin: rebuild every shard replica of a rejoining process at
  // its scheduled time. Client commands the dead incarnation dropped are
  // covered by the router's retry loop + session dedup (exactly-once still
  // holds end to end — that is the acceptance invariant).
  for (const auto& [p, t] : config.faults.process_rejoins) {
    w.exec.call_at(t, [&w, rc, p = p] { rejoin_kv_process(w, rc, p); });
  }

  // ---- Run to quiescence: every client answered, every shard converged
  // (no queued duplicates left, all correct replicas at one log length). ----
  const auto group_settled =
      [&](const std::vector<std::unique_ptr<smr::Replica>>& reps) -> bool {
    Slot len = 0;
    bool have_len = false;
    for (ProcessId p : all) {
      if (!w.correct(p)) continue;
      const smr::Replica& r = *reps[p - 1];
      if (fan_out) {
        if (!r.idle()) return false;
      }
      if (!have_len) {
        len = r.log().applied_len();
        have_len = true;
      } else if (r.log().applied_len() != len) {
        return false;
      }
    }
    if (!fan_out) {
      const ProcessId leader = w.omega->leader();
      if (leader < 1 || leader > n || !w.correct(leader)) return false;
      if (!reps[leader - 1]->idle()) return false;
    }
    return true;
  };
  const auto done = [&]() -> bool {
    if (!w.kv_workload->done()) return false;
    if (reconfig && (!w.reconfig_plan_done || !w.migrator->idle())) {
      return false;
    }
    for (std::size_t g = 0; g < groups; ++g) {
      if (!group_settled(w.kv_replicas[g])) return false;
    }
    if (reconfig && !group_settled(w.cfg_replicas)) return false;
    return true;
  };
  w.exec.run_until(done, config.horizon);

  // ---- Report. ----
  RunReport report;
  report.termination = done();

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

  // Per-shard rollups + invariants over correct replicas: equal store/session
  // hashes (KV agreement), well-formed commands only and no session running
  // past its client's issued count (KV validity), and — the global
  // exactly-once check — effective applied ops summing to exactly the
  // completed client ops, duplicates excluded.
  std::vector<sim::Time> commit_latencies;
  std::vector<sim::Time> queue_waits;
  std::uint64_t tuner_best_obs = 0;  // the busiest tuner = a leader's
  std::uint64_t combined_hash = util::kFnvBasis;
  std::uint64_t effective_total = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const kv::StateMachine* reference = nullptr;
    const smr::Replica* ref_replica = nullptr;
    bool ref_rejoined = false;
    for (ProcessId p : all) {
      if (!w.correct(p)) continue;
      const kv::StateMachine& sm = *w.kv_machines[g][p - 1];
      const smr::Replica& replica = *w.kv_replicas[g][p - 1];
      // Slot accounting reference: prefer a replica that never rejoined — a
      // rejoiner's log-derived stats exclude slots its snapshot install
      // covered, while a survivor's fold is exact.
      const bool rejoined = w.rejoin_at_[p - 1] != sim::kTimeInfinity;
      if (ref_replica == nullptr || (ref_rejoined && !rejoined)) {
        ref_replica = &replica;
        ref_rejoined = rejoined;
      }
      if (reference == nullptr) {
        reference = &sm;
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
      } else if (sm.store_hash() != reference->store_hash()) {
        report.agreement = false;
      }
      if (sm.malformed() != 0) report.validity = false;
      const smr::RunStats stats = replica.stats();
      report.fast_slots = std::max(report.fast_slots, stats.fast_slots);
      const std::vector<sim::Time> won = smr::won_slot_latencies(replica.log());
      commit_latencies.insert(commit_latencies.end(), won.begin(), won.end());
      const std::vector<sim::Time> qw = smr::queue_wait_latencies(replica.log());
      queue_waits.insert(queue_waits.end(), qw.begin(), qw.end());
      report.occupancy_slots += stats.occupancy_slots;
      report.occupancy_limit += stats.occupancy_limit;
      add_recovery_counters(report, stats);
      if (replica.tuner().enabled() && replica.tuner().observations() > 0) {
        report.tuner_epochs += stats.tuner_epochs;
        if (replica.tuner().observations() > tuner_best_obs) {
          tuner_best_obs = replica.tuner().observations();
          report.tuner_window = stats.tuner_window;
          report.tuner_batch = stats.tuner_batch;
        }
        if (!report.tuner_trajectory.empty()) report.tuner_trajectory += '|';
        report.tuner_trajectory += "g" + std::to_string(g) + "p" +
                                   std::to_string(p) + ":" +
                                   stats.tuner_trajectory;
      }
      // Slot 0's record only survives on replicas that never compacted it
      // away (records_base() > 0 means the first decision time was folded).
      const auto& records = replica.log().records();
      if (replica.log().applied_len() > 0 &&
          replica.log().records_base() == 0 && !records.empty()) {
        report.first_decision_delay =
            std::min(report.first_decision_delay, records[0].decided_at);
        report.first_correct_decision_delay = std::min(
            report.first_correct_decision_delay, records[0].decided_at);
      }
    }
    if (ref_replica != nullptr) {
      // Reference replica's stats drive the aggregate slot accounting (all
      // correct replicas of a shard apply the same log); RunStats folds in
      // compacted slots, so this stays exact after truncation.
      const smr::RunStats ref_stats = ref_replica->stats();
      report.slots_applied += ref_stats.slots_applied;
      report.commands_applied += ref_stats.commands_applied;
      report.noop_slots += ref_stats.noop_slots;
      combined_hash = util::fnv1a_u64(combined_hash, reference->store_hash());
    }
  }
  // Config group rollup + agreement: every correct replica must hold the
  // same table history (state_hash covers table + accept/reject counters);
  // the fingerprint folds it in so reconfig determinism pins the config
  // log too. Static runs have no config group — their hash is unchanged.
  if (reconfig) {
    const reconfig::TableMachine* cfg_ref = nullptr;
    for (ProcessId p : all) {
      if (!w.correct(p)) continue;
      const reconfig::TableMachine& tm = *w.cfg_machines[p - 1];
      if (cfg_ref == nullptr) {
        cfg_ref = &tm;
      } else if (tm.state_hash() != cfg_ref->state_hash()) {
        report.agreement = false;
      }
      if (tm.malformed() != 0) report.validity = false;
    }
    if (cfg_ref != nullptr) {
      combined_hash = util::fnv1a_u64(combined_hash, cfg_ref->state_hash());
    }
    report.reconfig_epoch = w.table_view->epoch();
    report.reconfig_migrations = w.migrator->migrations();
    report.reconfig_keys_moved = w.migrator->keys_moved();
    report.reconfig_proposals = w.migrator->proposals();
    report.reconfig_bounces = w.kv_router->bounces();
    report.reconfig_flip_times = w.reconfig_flips;
  }
  report.kv_store_hash = combined_hash;
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

  std::sort(commit_latencies.begin(), commit_latencies.end());
  report.commit_p50 = smr::latency_percentile(commit_latencies, 50);
  report.commit_p99 = smr::latency_percentile(commit_latencies, 99);
  report.commit_p999 = smr::latency_percentile(commit_latencies, 99.9);
  std::sort(queue_waits.begin(), queue_waits.end());
  report.queue_wait_p50 = smr::latency_percentile(queue_waits, 50);
  report.queue_wait_p99 = smr::latency_percentile(queue_waits, 99);
  if (report.occupancy_limit > 0) {
    report.window_occupancy = static_cast<double>(report.occupancy_slots) /
                              static_cast<double>(report.occupancy_limit);
  }

  // Per-process rows: one row per process, its per-shard applied lengths +
  // store hashes joined — the determinism fingerprint for KV runs.
  for (ProcessId p : all) {
    auto& row = w.reports[p - 1];
    if (!row.byzantine) {
      std::ostringstream os;
      sim::Time last_apply = 0;
      bool any = false;
      for (std::size_t g = 0; g < groups; ++g) {
        const smr::Replica* replica = w.kv_replicas[g][p - 1].get();
        if (replica == nullptr) continue;
        const smr::RunStats stats = replica->stats();
        if (stats.slots_applied > 0) any = true;
        last_apply = std::max(last_apply, stats.last_apply_at);
        os << (g > 0 ? "|" : "") << "g" << g << ":slots="
           << stats.slots_applied << ",h=" << std::hex
           << w.kv_machines[g][p - 1]->store_hash() << std::dec;
      }
      if (reconfig && w.cfg_replicas[p - 1] != nullptr) {
        const smr::RunStats stats = w.cfg_replicas[p - 1]->stats();
        last_apply = std::max(last_apply, stats.last_apply_at);
        os << "|cfg:slots=" << stats.slots_applied << ",h=" << std::hex
           << w.cfg_machines[p - 1]->state_hash() << std::dec;
      }
      row.decided = any;
      row.decided_at = last_apply;
      row.decision = os.str();
    }
    report.processes.push_back(row);
  }
  if (report.kv_ops > 0) {
    report.decided_value = "kv:" + std::to_string(report.kv_store_hash);
  }

  // Retired incarnations' recovery work counts too (see run_smr).
  for (const auto& retired : w.retired_replicas) {
    if (retired != nullptr) add_recovery_counters(report, retired->stats());
  }

  fill_resource_counters(report, w, config);
  if (report.slots_applied > 0) {
    report.events_per_slot = static_cast<double>(report.events) /
                             static_cast<double>(report.slots_applied);
  }
  if (config.algo == Algorithm::kFastRobust) {
    for (const auto& shard_engines : w.kv_engines) {
      for (const auto& engine : shard_engines) {
        add_tsend_stats(report,
                        static_cast<const core::FastRobustEngine&>(*engine)
                            .tsend_stats());
      }
    }
    for (const auto& engine : w.cfg_engines) {
      add_tsend_stats(report,
                      static_cast<const core::FastRobustEngine&>(*engine)
                          .tsend_stats());
    }
    finish_tsend_stats(report);
  }
  return report;
}

}  // namespace

RunReport run_cluster(const ClusterConfig& config) {
  World w(config);
  if (config.kv.enabled) return run_kv(w, config);
  if (config.smr.enabled) return run_smr(w, config);
  if (!config.faults.process_rejoins.empty()) {
    throw std::invalid_argument(
        "crash-and-rejoin requires SMR or KV mode (single-shot consensus has "
        "no log to catch up on)");
  }
  const std::size_t n = config.n;
  const auto all = all_processes(n);
  const std::size_t fP = n > 0 ? (n - 1) / 2 : 0;  // tolerance n >= 2f+1

  // ---- Wire the chosen algorithm. ----
  switch (config.algo) {
    case Algorithm::kPaxos:
    case Algorithm::kFastPaxos: {
      core::PaxosConfig pc;
      pc.n = n;
      pc.skip_phase1_for_p1 = (config.algo == Algorithm::kFastPaxos);
      for (ProcessId p : all) {
        w.transports.push_back(
            std::make_unique<core::NetTransport>(w.exec, w.network, p, /*tag=*/100));
        w.paxoses.push_back(
            std::make_unique<core::Paxos>(w.exec, *w.transports.back(), *w.omega, pc));
      }
      for (ProcessId p : all) {
        if (w.cfg.faults.is_byzantine(p)) continue;  // crash-model algorithms
        w.paxoses[p - 1]->start();
        w.exec.spawn(drive_bytes(&w.exec, &w.reports[p - 1],
                                 w.paxoses[p - 1]->propose(
                                     util::to_bytes(input_of(config, p)))));
      }
      break;
    }

    case Algorithm::kDiskPaxos: {
      RegionId region = 0;
      w.for_each_backing([&](auto& m) { region = core::make_disk_region(m, n); });
      core::DiskPaxosConfig dc;
      dc.n = n;
      for (ProcessId p : all) {
        w.transports.push_back(std::make_unique<core::NetTransport>(
            w.exec, w.network, p, /*tag=*/910));
        w.disk_paxoses.push_back(std::make_unique<core::DiskPaxos>(
            w.exec, w.view_ptrs[p - 1], region, *w.transports.back(), *w.omega,
            dc));
      }
      for (ProcessId p : all) {
        w.disk_paxoses[p - 1]->start();
        w.exec.spawn(drive_bytes(&w.exec, &w.reports[p - 1],
                                 w.disk_paxoses[p - 1]->propose(
                                     util::to_bytes(input_of(config, p)))));
      }
      break;
    }

    case Algorithm::kProtectedMemoryPaxos: {
      RegionId region = 0;
      w.for_each_backing([&](auto& m) { region = core::make_pmp_region(m, n); });
      core::PmpConfig pc;
      pc.n = n;
      for (ProcessId p : all) {
        w.transports.push_back(std::make_unique<core::NetTransport>(
            w.exec, w.network, p, /*tag=*/900));
        w.pmps.push_back(std::make_unique<core::ProtectedMemoryPaxos>(
            w.exec, w.view_ptrs[p - 1], region, *w.transports.back(), *w.omega,
            pc));
      }
      for (ProcessId p : all) {
        w.pmps[p - 1]->start();
        w.exec.spawn(drive_bytes(&w.exec, &w.reports[p - 1],
                                 w.pmps[p - 1]->propose(
                                     util::to_bytes(input_of(config, p)))));
      }
      break;
    }

    case Algorithm::kAlignedPaxos: {
      RegionId region = 0;
      w.for_each_backing([&](auto& m) { region = core::make_pmp_region(m, n); });
      core::AlignedPaxosConfig ac;
      ac.n = n;
      for (ProcessId p : all) {
        w.transports.push_back(std::make_unique<core::NetTransport>(
            w.exec, w.network, p, /*tag=*/920));
        w.aligneds.push_back(std::make_unique<core::AlignedPaxos>(
            w.exec, w.view_ptrs[p - 1], region, *w.transports.back(), *w.omega,
            ac));
      }
      for (ProcessId p : all) {
        w.aligneds[p - 1]->start();
        w.exec.spawn(drive_bytes(&w.exec, &w.reports[p - 1],
                                 w.aligneds[p - 1]->propose(
                                     util::to_bytes(input_of(config, p)))));
      }
      break;
    }

    case Algorithm::kRobustBackup: {
      std::map<ProcessId, RegionId> neb_regions;
      w.for_each_backing([&](auto& m) { neb_regions = core::make_neb_regions(m, n); });
      w.neb_region_ids = neb_regions;
      core::RobustBackupConfig rc;
      rc.n = n;
      rc.neb.n = n;
      rc.paxos.n = n;
      // Rounds run over non-equivocating broadcast (≥6 delays per hop, plus
      // scan latency growing with n); give proposers generous patience so
      // they don't abort rounds that are still in flight.
      rc.paxos.round_timeout = 150 * n;
      rc.paxos.retry_backoff = 40;
      for (ProcessId p : all) {
        w.neb_slots.push_back(std::make_unique<core::NebSlots>(
            w.exec, w.view_ptrs[p - 1], neb_regions));
        w.robust_backups.push_back(std::make_unique<core::RobustBackup>(
            w.exec, *w.neb_slots.back(), w.keystore, w.signers[p - 1], *w.omega, rc));
      }
      for (ProcessId p : all) {
        if (w.cfg.faults.is_byzantine(p)) continue;
        w.robust_backups[p - 1]->start();
        w.exec.spawn(drive_bytes(&w.exec, &w.reports[p - 1],
                                 w.robust_backups[p - 1]->propose(
                                     util::to_bytes(input_of(config, p)))));
      }
      break;
    }

    case Algorithm::kFastRobust: {
      core::CheapQuorumRegions cq_regions;
      std::map<ProcessId, RegionId> neb_regions;
      w.for_each_backing([&](auto& m) {
        cq_regions = core::make_cq_regions(m, n);
        neb_regions = core::make_neb_regions(m, n);
      });
      w.neb_region_ids = neb_regions;
      w.cq_region_leader_ = cq_regions.leader;

      core::FastRobustConfig fc;
      fc.n = n;
      fc.f = fP;
      fc.cheap.n = n;
      fc.cheap.timeout = config.cq_timeout;
      fc.neb.n = n;
      fc.paxos.n = n;
      fc.paxos.round_timeout = 150 * n;  // backup runs over NEB (see above)
      fc.paxos.retry_backoff = 40;
      for (ProcessId p : all) {
        w.neb_slots.push_back(std::make_unique<core::NebSlots>(
            w.exec, w.view_ptrs[p - 1], neb_regions));
        w.fast_robusts.push_back(std::make_unique<core::FastRobustProcess>(
            w.exec, w.view_ptrs[p - 1], cq_regions, *w.neb_slots.back(),
            w.keystore, w.signers[p - 1], *w.omega, fc));
      }
      for (ProcessId p : all) {
        if (w.cfg.faults.is_byzantine(p)) continue;
        w.fast_robusts[p - 1]->start();
        w.exec.spawn(drive_fast_robust(&w.reports[p - 1],
                                       w.fast_robusts[p - 1]->propose(
                                           util::to_bytes(input_of(config, p)))));
      }
      break;
    }
  }

  // ---- Byzantine strategies. ----
  spawn_byzantine(w, config);

  // ---- Run. ----
  w.exec.run_until([&] { return w.done(); }, config.horizon);

  // ---- Report. ----
  RunReport report;
  report.processes = w.reports;

  std::set<std::string> inputs;
  for (ProcessId p : all) inputs.insert(input_of(config, p));

  std::optional<std::string> decided;
  for (ProcessId p : all) {
    const auto& row = w.reports[p - 1];
    if (row.byzantine) continue;
    if (row.decided) {
      report.first_decision_delay =
          std::min(report.first_decision_delay, row.decided_at);
      report.first_correct_decision_delay =
          std::min(report.first_correct_decision_delay, row.decided_at);
      if (decided.has_value() && *decided != row.decision) {
        report.agreement = false;
      }
      decided = decided.has_value() ? decided : row.decision;
      if (!inputs.contains(row.decision)) report.validity = false;
    } else if (w.correct(p)) {
      report.termination = false;
    }
  }
  report.decided_value = decided;

  fill_resource_counters(report, w, config);
  for (const auto& rb : w.robust_backups) add_tsend_stats(report, rb->tsend_stats());
  for (const auto& fr : w.fast_robusts) add_tsend_stats(report, fr->tsend_stats());
  finish_tsend_stats(report);
  return report;
}

}  // namespace mnm::harness
