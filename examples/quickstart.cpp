// Quickstart: consensus in two network delays on simulated RDMA.
//
// Builds the smallest interesting cluster by hand — 2 processes, 3
// fail-prone memories — and runs Protected Memory Paxos (paper §5.1): the
// leader decides after a single parallel write because the memories'
// dynamic permissions guarantee the write was uncontended.
//
//   $ ./quickstart
//
// See examples/replicated_log.cpp and examples/byzantine_ledger.cpp for the
// multi-decree and Byzantine scenarios.

#include <cstdio>
#include <memory>
#include <vector>

#include "src/core/omega.hpp"
#include "src/core/protected_memory_paxos.hpp"
#include "src/core/transport.hpp"
#include "src/mem/memory.hpp"
#include "src/net/network.hpp"
#include "src/sim/executor.hpp"

using namespace mnm;

int main() {
  std::printf("mnm quickstart: Protected Memory Paxos, n=2 processes, m=3 memories\n\n");

  // 1. The simulator: a deterministic event loop whose clock counts the
  //    paper's delay units (1 per message, 2 per memory operation).
  sim::Executor exec;

  // 2. The M&M substrate: authenticated links + three crash-prone memories,
  //    each with one region whose write permission is exclusively the
  //    current leader's (transferable via changePermission).
  net::Network network(exec, /*n_processes=*/2);
  std::vector<std::unique_ptr<mem::Memory>> memories;
  std::vector<mem::MemoryIface*> ifc;
  core::DiskRegion region;
  for (MemoryId id = 1; id <= 3; ++id) {
    memories.push_back(std::make_unique<mem::Memory>(exec, id));
    region = core::make_pmp_region(*memories.back(), /*n=*/2);
    ifc.push_back(memories.back().get());
  }

  // 3. Ω failure detector: p1 is the (stable) leader.
  core::Omega omega = core::Omega::fixed(exec, kLeaderP1);

  // 4. One Protected Memory Paxos instance per process, each over its own
  //    transport endpoint (the DECIDE conversation), which also tells it
  //    how many processes there are.
  core::NetTransport t1(exec, network, 1, /*tag=*/900);
  core::NetTransport t2(exec, network, 2, /*tag=*/900);
  core::ProtectedMemoryPaxos p1(exec, ifc, region, t1, omega);
  core::ProtectedMemoryPaxos p2(exec, ifc, region, t2, omega);
  p1.start();
  p2.start();

  // 5. Both processes propose; the protocol picks one value.
  exec.spawn([](core::ProtectedMemoryPaxos* p, sim::Executor* e) -> sim::Task<void> {
    const Bytes decided = co_await p->propose(util::to_bytes("apply: x = 1"));
    std::printf("p1 decided %-16s at t=%llu (delays)\n",
                ("'" + util::to_string(decided) + "'").c_str(),
                static_cast<unsigned long long>(e->now()));
  }(&p1, &exec));
  exec.spawn([](core::ProtectedMemoryPaxos* p, sim::Executor* e) -> sim::Task<void> {
    const Bytes decided = co_await p->propose(util::to_bytes("apply: x = 2"));
    std::printf("p2 decided %-16s at t=%llu (delays)\n",
                ("'" + util::to_string(decided) + "'").c_str(),
                static_cast<unsigned long long>(e->now()));
  }(&p2, &exec));

  exec.run(/*until=*/10000);

  std::printf("\nleader decision latency: %llu delay units (paper: 2-deciding, Thm 5.1)\n",
              static_cast<unsigned long long>(p1.decided_at()));
  std::printf("both agree: %s\n",
              util::to_string(p1.decision()) == util::to_string(p2.decision())
                  ? "yes"
                  : "NO (bug!)");
  return 0;
}
