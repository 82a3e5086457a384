// Cross-shard bank transfers over 2PC — the txn/ quickstart from the
// README, runnable: 2 shards, each a 3-replica Fast Paxos group behind
// kv::Router, with a client-side txn::Coordinator moving money between
// accounts that live on different shards.
//
// Three acts:
//   1. seed two accounts with plain PUTs,
//   2. run one guarded transfer through the coordinator (prepare both keys,
//      commit both keys — atomic even though each key rides its own
//      replicated log),
//   3. race two transfers against the same account: the no-wait conflict
//      rule aborts exactly one of them immediately — no lock-wait, no
//      deadlock — and Σ balances is conserved either way.

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
#include "src/smr/log.hpp"
#include "src/txn/coordinator.hpp"

using namespace mnm;

namespace {

constexpr std::size_t kReplicas = 3;
constexpr std::size_t kShards = 2;

std::int64_t parse_balance(const Bytes& raw) {
  return raw.empty() ? 0 : std::stoll(util::to_string(raw));
}

sim::Task<void> seed_account(kv::Router* router, kv::ClientId id,
                             const std::string& key, std::int64_t balance,
                             bool* done) {
  kv::Command put;
  put.op = kv::Op::kPut;
  put.key = util::to_bytes(key);
  put.value = util::to_bytes(std::to_string(balance));
  (void)co_await router->execute(id, put);
  *done = true;
}

/// Read both balances, then transfer `amount` from `from` to `to` with
/// optimistic guards on the exact bytes read.
sim::Task<void> transfer(kv::Router* router, txn::Coordinator* coord,
                         kv::ClientId id, txn::TxnId txn,
                         const std::string& from, const std::string& to,
                         std::int64_t amount, txn::Outcome* outcome) {
  std::vector<txn::Write> writes(2);
  const std::string keys[2] = {from, to};
  const std::int64_t delta[2] = {-amount, amount};
  for (std::size_t i = 0; i < 2; ++i) {
    kv::Command get;
    get.op = kv::Op::kGet;
    get.key = util::to_bytes(keys[i]);
    const kv::Reply r = co_await router->execute(id, get);
    writes[i].kind = txn::WriteKind::kPut;
    writes[i].key = get.key;
    writes[i].value =
        util::to_bytes(std::to_string(parse_balance(r.value) + delta[i]));
    writes[i].has_expected = true;  // abort if anyone slipped in between
    writes[i].expected = r.value;
  }
  const txn::TxnReport rep = co_await coord->run(id, txn, writes);
  *outcome = rep.outcome;
}

const char* outcome_name(txn::Outcome o) {
  return o == txn::Outcome::kCommitted ? "committed" : "aborted";
}

}  // namespace

int main() {
  std::printf("txn_transfer: 2PC bank transfers over %zu shards x %zu "
              "replicas\n\n",
              kShards, kReplicas);
  sim::Executor exec;
  net::Network net(exec, kReplicas);
  core::Omega omega = core::Omega::fixed(exec, kLeaderP1);
  core::PaxosConfig pc;
  pc.leader_terms = true;

  // Same stack as examples/kv_store.cpp: per process one transport + mux,
  // per (shard, process) one engine + log over a KV state machine, one
  // Router over all of it — the coordinator is just another client of it.
  std::vector<std::unique_ptr<core::NetTransport>> transports;
  std::vector<std::unique_ptr<core::TransportMux>> muxes;
  std::vector<std::unique_ptr<core::PaxosEngine>> engines;
  std::vector<std::unique_ptr<kv::StateMachine>> machines;
  std::vector<std::unique_ptr<smr::Log>> logs;
  std::vector<kv::ShardBackend> backends(kShards);
  for (ProcessId p : all_processes(kReplicas)) {
    transports.push_back(
        std::make_unique<core::NetTransport>(exec, net, p, /*tag=*/100));
    muxes.push_back(
        std::make_unique<core::TransportMux>(exec, *transports.back()));
  }
  for (std::size_t g = 0; g < kShards; ++g) {
    for (ProcessId p : all_processes(kReplicas)) {
      engines.push_back(std::make_unique<core::PaxosEngine>(
          exec, muxes[p - 1]->sub(static_cast<std::uint8_t>(g)), omega, pc));
      machines.push_back(std::make_unique<kv::StateMachine>());
      logs.push_back(std::make_unique<smr::Log>(
          exec, *engines.back(), omega, *machines.back(), smr::LogConfig{}));
      backends[g].logs.push_back(logs.back().get());
      backends[g].machines.push_back(machines.back().get());
    }
  }
  kv::Router router(exec, omega, kv::ShardMap(kShards), std::move(backends),
                    kv::RouterConfig{});
  txn::Coordinator coord(router);
  for (auto& m : muxes) m->start();
  for (auto& e : engines) e->start();
  for (auto& l : logs) l->start();

  // Pick two account keys that hash to different shards, so the transfer
  // genuinely crosses logs.
  kv::ShardMap map(kShards);
  std::string alice = "acct-alice", bob;
  for (int i = 0;; ++i) {
    bob = "acct-bob" + std::to_string(i);
    if (map.shard_of(util::to_bytes(bob)) !=
        map.shard_of(util::to_bytes(alice))) {
      break;
    }
  }
  std::printf("accounts: %s (shard %zu), %s (shard %zu)\n", alice.c_str(),
              map.shard_of(util::to_bytes(alice)), bob.c_str(),
              map.shard_of(util::to_bytes(bob)));

  // Act 1: seed the accounts.
  const kv::ClientId c1 = router.register_client();
  const kv::ClientId c2 = router.register_client();
  bool seeded[2] = {};
  exec.spawn(seed_account(&router, c1, alice, 100, &seeded[0]));
  exec.spawn(seed_account(&router, c2, bob, 100, &seeded[1]));
  exec.run_until([&] { return seeded[0] && seeded[1]; }, 100000);

  // Act 2: one uncontended transfer — must commit.
  txn::Outcome solo = txn::Outcome::kAborted;
  exec.spawn(transfer(&router, &coord, c1, /*txn=*/1, alice, bob, 30, &solo));
  exec.run_until([&] { return solo != txn::Outcome::kAborted; }, 100000);
  std::printf("transfer of 30 %s -> %s: %s\n", alice.c_str(), bob.c_str(),
              outcome_name(solo));

  // Act 3: two transfers race for alice. The no-wait rule refuses the
  // second prepare on the locked (or guard-missed) key instantly — one
  // commits, one aborts, nobody waits.
  txn::Outcome race[2] = {txn::Outcome::kCrashed, txn::Outcome::kCrashed};
  exec.spawn(transfer(&router, &coord, c1, /*txn=*/2, alice, bob, 10, &race[0]));
  exec.spawn(transfer(&router, &coord, c2, /*txn=*/3, alice, bob, 10, &race[1]));
  exec.run_until(
      [&] {
        return race[0] != txn::Outcome::kCrashed &&
               race[1] != txn::Outcome::kCrashed;
      },
      100000);
  std::printf("racing transfers: %s / %s\n", outcome_name(race[0]),
              outcome_name(race[1]));

  // Let followers drain, then check the invariant: Σ balances unchanged,
  // every lock released, all replicas agree.
  exec.run_until(
      [&] {
        for (std::size_t g = 0; g < kShards; ++g) {
          const Slot len = logs[g * kReplicas]->applied_len();
          for (std::size_t p = 1; p < kReplicas; ++p) {
            if (logs[g * kReplicas + p]->applied_len() != len) {
              return false;
            }
          }
        }
        return true;
      },
      100000);
  std::int64_t total = 0;
  std::size_t locks = 0;
  bool agree = true;
  for (std::size_t g = 0; g < kShards; ++g) {
    kv::StateMachine& m = *machines[g * kReplicas];
    for (const auto& [key, value] : m.store()) total += parse_balance(value);
    locks += m.locks_held();
    for (std::size_t p = 1; p < kReplicas; ++p) {
      agree = agree &&
              machines[g * kReplicas + p]->store_hash() == m.store_hash();
    }
  }
  std::printf("\nsum of balances: %lld (seeded 200), locks held: %zu, "
              "replicas agree: %s\n",
              static_cast<long long>(total), locks, agree ? "yes" : "NO");
  const bool ok = total == 200 && locks == 0 && agree &&
                  solo == txn::Outcome::kCommitted;
  std::printf("%s\n", ok ? "atomic across shards: yes" : "BUG!");
  return ok ? 0 : 1;
}
