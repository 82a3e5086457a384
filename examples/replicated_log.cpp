// Replicated log (state-machine replication) on the fast message baseline,
// with a leader crash mid-window.
//
// The systems the paper motivates (DARE, APUS — §1/§2) replicate a log: one
// consensus instance per slot. This example runs the new smr stack directly:
// one core::PaxosEngine (Fast Paxos: 2-delay steady state) per replica over
// a SINGLE shared transport — the engine's slot-tag namespace replaces the
// old per-slot tag hand-allocation — and one smr::Replica per process that
// batches commands into slots and pipelines them through a 4-slot window.
// Halfway through, the leader is killed: Ω's poke hands leadership to p2,
// which re-proposes the open window and continues with its own queued
// commands. The surviving replicas' logs stay identical.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/omega.hpp"
#include "src/core/transport.hpp"
#include "src/net/network.hpp"
#include "src/sim/executor.hpp"
#include "src/smr/replica.hpp"

using namespace mnm;

namespace {

constexpr std::size_t kReplicas = 3;
constexpr std::size_t kCommandsPerReplica = 12;
constexpr std::size_t kBatch = 2;   // commands packed per slot
constexpr std::size_t kWindow = 4;  // slots in flight

/// The replicated state machine: a trivial key-value store that also keeps
/// the raw command log for the equality check below.
struct KvStateMachine : smr::StateMachine {
  std::map<std::string, std::string> kv;
  std::vector<std::string> log;

  void apply(Slot, util::ByteView command) override {
    // Command format: "set <key> <value>".
    const std::string cmd = util::to_string(command);
    log.push_back(cmd);
    const auto sp1 = cmd.find(' ');
    const auto sp2 = cmd.find(' ', sp1 + 1);
    if (cmd.compare(0, 3, "set") == 0 && sp2 != std::string::npos) {
      kv[cmd.substr(sp1 + 1, sp2 - sp1 - 1)] = cmd.substr(sp2 + 1);
    }
  }
};

}  // namespace

int main() {
  std::printf(
      "replicated_log: %zu replicas, %zu commands each, batch=%zu, "
      "window=%zu, leader crash mid-stream\n\n",
      kReplicas, kCommandsPerReplica, kBatch, kWindow);

  sim::Executor exec;
  net::Network network(exec, kReplicas);
  bool p1_alive = true;
  // Ω: p1 while alive, then p2 — the standard leader-failover shape.
  core::Omega omega(
      exec, [&p1_alive](sim::Time) -> ProcessId { return p1_alive ? 1 : 2; },
      /*poke_complete=*/true);

  // One engine + replica per process; each replica owns exactly ONE
  // transport endpoint (tag 100) — the engine multiplexes every slot over it.
  core::PaxosConfig pc;
  pc.leader_terms = true;  // one phase 1 per leader: 2 delays a slot
  smr::ReplicaConfig rc;
  rc.batch = kBatch;
  rc.log.window = kWindow;

  std::vector<std::unique_ptr<core::NetTransport>> transports;
  std::vector<std::unique_ptr<core::PaxosEngine>> engines;
  std::vector<std::unique_ptr<KvStateMachine>> machines;
  std::vector<std::unique_ptr<smr::Replica>> replicas;
  for (ProcessId p : all_processes(kReplicas)) {
    transports.push_back(
        std::make_unique<core::NetTransport>(exec, network, p, /*tag=*/100));
    engines.push_back(std::make_unique<core::PaxosEngine>(
        exec, *transports.back(), omega, pc));
    machines.push_back(std::make_unique<KvStateMachine>());
    replicas.push_back(std::make_unique<smr::Replica>(
        exec, *engines.back(), omega, *machines.back(), rc));
    engines.back()->start();
    replicas.back()->start();
  }

  // Every replica submits its own workload; only the leader's commands
  // commit while it leads (followers' queues drain if they take over).
  for (ProcessId p : all_processes(kReplicas)) {
    for (std::size_t i = 0; i < kCommandsPerReplica; ++i) {
      replicas[p - 1]->submit(
          util::to_bytes("set key" + std::to_string(i) + " from-p" +
                         std::to_string(p)));
    }
    replicas[p - 1]->flush();
  }

  // Kill p1 once it has pipelined a few slots: undecided slots in its window
  // are re-proposed by p2 (Paxos adopts any value a quorum accepted).
  exec.call_at(5, [&] {
    p1_alive = false;
    network.crash(1);
    omega.poke();  // announce the leadership change to suspended waiters
    std::printf("  !! leader p1 crashed at t=5 (mid-window)\n");
  });

  exec.run_until(
      [&] {
        if (!replicas[1]->idle()) return false;  // p2: the post-crash leader
        const Slot len = replicas[1]->log().applied_len();
        return replicas[2]->log().applied_len() == len;
      },
      1000000);

  // Report: logs of the surviving replicas must be identical.
  std::printf("\nfinal logs:\n");
  for (ProcessId p : all_processes(kReplicas)) {
    const auto& log = machines[p - 1]->log;
    if (p == 1) {
      std::printf("  p%u: (crashed after %zu applied commands)\n", p, log.size());
      continue;
    }
    std::printf("  p%u: %zu commands over %llu slots\n", p, log.size(),
                static_cast<unsigned long long>(
                    replicas[p - 1]->log().applied_len()));
  }
  const bool logs_match = machines[1]->log == machines[2]->log;

  // p2's fold of every slot it applied: counts plus the latency samples of
  // the slots it proposed and won after taking over.
  const smr::SlotStats& s2 = replicas[1]->log().stats();
  std::vector<sim::Time> commit = s2.won_latencies;
  std::sort(commit.begin(), commit.end());
  std::printf(
      "\np2 slot stats: cmds=%llu slots=%llu noop=%llu fast=%llu "
      "won=%zu commit p50=%llu p99=%llu last apply t=%llu\n",
      static_cast<unsigned long long>(s2.commands),
      static_cast<unsigned long long>(replicas[1]->log().applied_len()),
      static_cast<unsigned long long>(s2.noop_slots),
      static_cast<unsigned long long>(s2.fast_slots), commit.size(),
      static_cast<unsigned long long>(smr::latency_percentile(commit, 50)),
      static_cast<unsigned long long>(smr::latency_percentile(commit, 99)),
      static_cast<unsigned long long>(s2.last_apply_at));
  std::printf("replica logs identical: %s\n", logs_match ? "yes" : "NO (bug!)");
  std::printf("state machine on p2: ");
  for (const auto& [k, v] : machines[1]->kv) {
    std::printf("%s=%s ", k.c_str(), v.c_str());
  }
  std::printf("\n");
  return logs_match ? 0 : 1;
}
