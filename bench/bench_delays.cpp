// Experiment F1 — common-case decision delays (DESIGN.md experiment index).
//
// Reproduces the paper's headline complexity claims in one table:
//   Fast & Robust            2 delays   (Thm 4.9, Lemma B.6)
//   Protected Memory Paxos   2 delays   (Thm 5.1)
//   Fast Paxos (messages)    2 delays   (§1, [38]; p1's term 0 here — any
//                                        stable leader after one phase 1)
//   Paxos (2-phase)          4 delays
//   Disk Paxos               4 delays   (§1: "at least four delays")
//   Robust Backup(Paxos)     ≥ 6 delays (§4 footnote 2: NEB ≥ 6 delays/hop)
//   Aligned Paxos            8 delays   (two phases, §5.2: each phase waits
//                                        on a memory agent's 4-delay
//                                        permission-and-write chain; it
//                                        has no term 0 yet)
//
// The simulator's clock counts the paper's delay units exactly (1 per
// message, 2 per memory op), so these are integer reproductions, not
// approximations. Sweeps n and the memory backend (plain vs RDMA-verbs).

#include <cstdio>
#include <vector>

#include "src/harness/cluster.hpp"
#include "src/harness/table.hpp"

using namespace mnm;
using namespace mnm::harness;

namespace {

std::string fmt_delay(sim::Time t) {
  return t == sim::kTimeInfinity ? "-" : std::to_string(t);
}

void delay_table(bool verbs) {
  struct Row {
    Algorithm algo;
    std::size_t n, m;
    const char* resilience;
    const char* paper_claim;
  };
  const std::vector<Row> rows = {
      {Algorithm::kFastRobust, 3, 3, "Byz n>=2f+1, m>=2fM+1", "2"},
      {Algorithm::kProtectedMemoryPaxos, 2, 3, "crash n>=f+1, m>=2fM+1", "2"},
      {Algorithm::kFastPaxos, 3, 0, "crash n>=2f+1 (msgs only)", "2"},
      {Algorithm::kPaxos, 3, 0, "crash n>=2f+1 (msgs only)", "4"},
      {Algorithm::kDiskPaxos, 2, 3, "crash n>=f+1 (static perms)", ">=4"},
      // Aligned Paxos runs two Paxos phases; its memory-agent phase 1 is a
      // permission-grab + write + read chain (6 delays), overlapping the
      // process agents' message round trips.
      {Algorithm::kAlignedPaxos, 3, 3, "crash maj(P+M)", "2 phases"},
      {Algorithm::kRobustBackup, 3, 3, "Byz n>=2f+1 (static perms)", ">=6"},
  };

  Table t({"algorithm", "n", "m", "resilience class", "paper delays",
           "measured delays", "msgs", "mem ops"});
  for (const Row& r : rows) {
    ClusterConfig c;
    c.algo = r.algo;
    c.n = r.n;
    c.m = r.m;
    c.verbs_backend = verbs;
    const RunReport rep = run_cluster(c);
    t.row({algorithm_name(r.algo), std::to_string(r.n), std::to_string(r.m),
           r.resilience, r.paper_claim, fmt_delay(rep.first_decision_delay),
           std::to_string(rep.messages_sent),
           std::to_string(rep.mem_reads + rep.mem_writes)});
  }
  std::printf("\n== F1: common-case decision delays (%s backend) ==\n",
              verbs ? "RDMA-verbs" : "plain memory");
  t.print();
}

void scaling_table() {
  std::printf("\n== F1b: 2-deciding claims hold as n grows ==\n");
  Table t({"algorithm", "n", "m", "measured delays"});
  for (std::size_t n : {3u, 5u, 7u, 9u}) {
    ClusterConfig c;
    c.algo = Algorithm::kFastRobust;
    c.n = n;
    c.m = 3;
    const RunReport rep = run_cluster(c);
    t.row({"Fast & Robust", std::to_string(n), "3",
           fmt_delay(rep.first_decision_delay)});
  }
  for (std::size_t n : {2u, 3u, 5u}) {
    for (std::size_t m : {3u, 5u, 7u}) {
      ClusterConfig c;
      c.algo = Algorithm::kProtectedMemoryPaxos;
      c.n = n;
      c.m = m;
      const RunReport rep = run_cluster(c);
      t.row({"Protected Memory Paxos", std::to_string(n), std::to_string(m),
             fmt_delay(rep.first_decision_delay)});
    }
  }
  t.print();
}

}  // namespace

int main() {
  std::printf("bench_delays: decision latency in delay units "
              "(1 = message, 2 = memory op; paper §3)\n");
  delay_table(/*verbs=*/false);
  delay_table(/*verbs=*/true);
  scaling_table();
  return 0;
}
