// reconfig::Migrator — the driver that turns a decided ConfigChange into
// moved keys.
//
// Reconfiguration is two separate consensus problems and one transfer:
//
//  1. Deciding the change. The Migrator proposes an epoch-stamped
//     ConfigChange into the config group's log (CAS against the epoch it
//     read, see reconfig::ConfigChange) and waits for the TableView to
//     report the flip. Re-submission on timeout is safe: a duplicate sees
//     the bumped epoch and rejects on every replica.
//  2. Moving the keys. For the buckets that changed owner the Migrator runs
//     the seal → drain → install → purge protocol:
//       SEAL    (src group log)  stop serving the moving buckets; client
//                                ops on them bounce with kWrongEpoch.
//       DRAIN   (src replica)    read the sealed range as a checksummed
//                                RangeSnapshot from the machine of the
//                                source replica Ω trusts, via
//                                smr::Log::fetch_range, which waits until
//                                that machine has applied the seal (a
//                                rejoined replica catches up first).
//       INSTALL (dst group log)  replicate the snapshot into the
//                                destination's log so every dst replica
//                                imports the same pairs + sessions at the
//                                same slot, then opens the buckets.
//       PURGE   (src group log)  drop the sealed-away pairs at the source.
//     The three admin ops ride the Migrator's own router session — the same
//     exactly-once machinery as client ops, so a crash-induced re-submit of
//     INSTALL imports once. In signed-command mode that session carries its
//     own keystore identity (registered by Router::register_admin_client
//     and allow-listed on every backend machine): SEAL/INSTALL/PURGE are
//     signed by the Migrator and rejected from any other signer — a
//     Byzantine slot winner cannot reshape ownership even with a valid
//     *client* signature.
//
// The driver is serial: one change decides and fully migrates before the
// next is proposed (run_change is awaited by the harness plan runner).
// Client traffic keeps flowing throughout — sealed-bucket ops bounce, the
// Router re-routes them off the live table, and the merged session table at
// the destination keeps straddling retries exactly-once.

#pragma once

#include <cstdint>
#include <vector>

#include "src/common.hpp"
#include "src/core/omega.hpp"
#include "src/kv/router.hpp"
#include "src/reconfig/change.hpp"
#include "src/reconfig/table_view.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/task.hpp"
#include "src/smr/log.hpp"

namespace mnm::reconfig {

/// Re-submit an undecided ConfigChange after this long (leader crash can
/// lose the proposal; the CAS makes the duplicate harmless).
inline constexpr sim::Time kProposeTimeout = 256;
/// Pause before re-picking the source replica after a failed drain round
/// (the picked replica was halted mid-fetch).
inline constexpr sim::Time kDrainRetry = 64;

class Migrator {
 public:
  /// `config_group` is the config group's backend: its logs, indexed by
  /// process (nullptr for processes without a correct replica), and no
  /// machines. Registers its own admin session with the router.
  Migrator(sim::Executor& exec, core::Omega& omega, TableView& view,
           kv::ShardBackend config_group, kv::Router& router);

  /// Drive one change end to end: propose against the current epoch, wait
  /// for the decided flip, seal/drain/install/purge the moved buckets.
  /// Resolves true when this change was the one accepted at its target
  /// epoch (always, under the serial single-proposer discipline) and its
  /// migration completed; false when the proposal was structurally invalid
  /// or lost the CAS.
  sim::Task<bool> run_change(ChangeKind kind, std::uint32_t src,
                             std::uint32_t dst);

  /// Crash-and-rejoin support: point the config backend's slot for process
  /// `p` at a fresh replica incarnation's log (mirrors kv::Router::rebind).
  void rebind_config(ProcessId p, smr::Log* log);

  /// Fully migrated changes.
  std::uint64_t migrations() const { return migrations_; }
  /// Pairs carried by accepted INSTALLs.
  std::uint64_t keys_moved() const { return keys_moved_; }
  /// ConfigChange submissions (> migrations ⇒ propose retries happened).
  std::uint64_t proposals() const { return proposals_; }
  /// No change currently in flight.
  bool idle() const { return active_ == 0; }

 private:
  void submit_config(const Bytes& wire);
  sim::Task<bool> propose(ConfigChange c);
  sim::Task<void> migrate(std::uint64_t epoch);

  sim::Executor* exec_;
  core::Omega* omega_;
  TableView* view_;
  kv::ShardBackend config_group_;
  kv::Router* router_;
  kv::ClientId admin_client_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t keys_moved_ = 0;
  std::uint64_t proposals_ = 0;
  std::size_t active_ = 0;
};

}  // namespace mnm::reconfig
