// Sharded replicated KV store in ~20 lines of setup: 2 shards, each a
// 3-replica Fast Paxos group behind kv::Router, with exactly-once client
// sessions — the kv/ quickstart from the README, runnable.
//
// The harness KV mode (ClusterConfig::kv) assembles exactly this stack and
// adds fault plans; here it is by hand so the seams show: one World of
// processes, one TransportMux per process, one engine + replica per
// (shard, process), one Router over the shard map, clients as coroutines.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/omega.hpp"
#include "src/core/transport.hpp"
#include "src/core/transport_mux.hpp"
#include "src/kv/router.hpp"
#include "src/kv/state_machine.hpp"
#include "src/net/network.hpp"
#include "src/sim/executor.hpp"
#include "src/smr/replica.hpp"

using namespace mnm;

namespace {

constexpr std::size_t kReplicas = 3;
constexpr std::size_t kShards = 2;

sim::Task<void> client(sim::Executor* exec, kv::Router* router, kv::ClientId id,
                       bool* done) {
  using kv::Command, kv::Op, kv::Reply, kv::Status;
  Command put;
  put.op = Op::kPut;
  put.key = util::to_bytes("user:" + std::to_string(id));
  put.value = util::to_bytes("hello from client " + std::to_string(id));
  (void)co_await router->execute(id, put);

  Command get;
  get.op = Op::kGet;
  get.key = put.key;
  const Reply r = co_await router->execute(id, get);
  std::printf("  client %llu read back [shard %zu]: \"%s\" at t=%llu\n",
              static_cast<unsigned long long>(id),
              router->shard_map().shard_of(get.key),
              util::to_string(r.value).c_str(),
              static_cast<unsigned long long>(exec->now()));
  *done = true;
}

}  // namespace

int main() {
  std::printf("kv_store: %zu shards x %zu replicas, Fast Paxos groups\n\n",
              kShards, kReplicas);
  sim::Executor exec;
  net::Network net(exec, kReplicas);
  core::Omega omega = core::Omega::fixed(exec, kLeaderP1);
  core::PaxosConfig pc;
  pc.leader_terms = true;

  // --- The quickstart: per process one transport + mux; per (shard,
  // process) one engine over the mux sub + one replica over a KV state
  // machine; one Router over all of it. ---
  std::vector<std::unique_ptr<core::NetTransport>> transports;
  std::vector<std::unique_ptr<core::TransportMux>> muxes;
  std::vector<std::unique_ptr<core::PaxosEngine>> engines;
  std::vector<std::unique_ptr<kv::StateMachine>> machines;
  std::vector<std::unique_ptr<smr::Replica>> replicas;
  std::vector<kv::ShardBackend> backends(kShards);
  for (ProcessId p : all_processes(kReplicas)) {
    transports.push_back(
        std::make_unique<core::NetTransport>(exec, net, p, /*tag=*/100));
    muxes.push_back(std::make_unique<core::TransportMux>(exec, *transports.back()));
  }
  for (std::size_t g = 0; g < kShards; ++g) {
    for (ProcessId p : all_processes(kReplicas)) {
      engines.push_back(std::make_unique<core::PaxosEngine>(
          exec, muxes[p - 1]->sub(static_cast<std::uint8_t>(g)), omega, pc));
      machines.push_back(std::make_unique<kv::StateMachine>());
      replicas.push_back(std::make_unique<smr::Replica>(
          exec, *engines.back(), omega, *machines.back(), smr::ReplicaConfig{}));
      backends[g].replicas.push_back(replicas.back().get());
      backends[g].machines.push_back(machines.back().get());
    }
  }
  kv::Router router(exec, omega, kv::ShardMap(kShards), std::move(backends),
                    kv::RouterConfig{});
  for (auto& m : muxes) m->start();
  for (auto& e : engines) e->start();
  for (auto& r : replicas) r->start();

  // --- Clients: PUT then GET, routed by key hash, exactly-once. ---
  constexpr std::size_t kClients = 4;
  bool done[kClients] = {};
  for (std::size_t i = 0; i < kClients; ++i) {
    const kv::ClientId id = router.register_client();
    exec.spawn(client(&exec, &router, id, &done[i]));
  }
  exec.run_until(
      [&] {
        for (const bool d : done) {
          if (!d) return false;
        }
        return true;
      },
      100000);
  // Clients are answered by the first replica to apply; let the followers
  // drain to the same log length before comparing stores.
  exec.run_until(
      [&] {
        for (std::size_t g = 0; g < kShards; ++g) {
          const Slot len = replicas[g * kReplicas]->log().applied_len();
          for (std::size_t p = 1; p < kReplicas; ++p) {
            if (replicas[g * kReplicas + p]->log().applied_len() != len) {
              return false;
            }
          }
        }
        return true;
      },
      100000);

  // Shard 0's replicas all hold the same store (machines are laid out
  // [shard × replica]; index g * kReplicas + p - 1).
  bool agree = true;
  for (std::size_t g = 0; g < kShards; ++g) {
    const std::uint64_t h = machines[g * kReplicas]->store_hash();
    for (std::size_t p = 1; p < kReplicas; ++p) {
      agree = agree && machines[g * kReplicas + p]->store_hash() == h;
    }
    std::printf("shard %zu: %zu keys, replicas agree\n", g,
                machines[g * kReplicas]->store().size());
  }
  std::printf("stores identical across each shard: %s\n",
              agree ? "yes" : "NO (bug!)");
  return agree ? 0 : 1;
}
