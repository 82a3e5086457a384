// Wall-clock simulator throughput of whole single-shot consensus instances
// (google-benchmark) at five of the seven algorithms' default shapes.
//
// The virtual cost of those instances (delays, messages, memory ops and
// signatures per decision) is a tier-1 assertion, not bench output:
// Determinism.SingleShotCostsPinned pins it at seed 1.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "src/harness/cluster.hpp"

using namespace mnm;
using namespace mnm::harness;

namespace {

void bm_instance(benchmark::State& state, Algorithm algo, std::size_t n,
                 std::size_t m) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ClusterConfig c;
    c.algo = algo;
    c.n = n;
    c.m = m;
    c.seed = seed++;
    const RunReport r = run_cluster(c);
    if (!r.agreement) state.SkipWithError("agreement violated");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark("instance/FastRobust_n3_m3", bm_instance,
                               Algorithm::kFastRobust, 3, 3)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("instance/PMP_n2_m3", bm_instance,
                               Algorithm::kProtectedMemoryPaxos, 2, 3)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("instance/FastPaxos_n3", bm_instance,
                               Algorithm::kFastPaxos, 3, 0)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("instance/DiskPaxos_n2_m3", bm_instance,
                               Algorithm::kDiskPaxos, 2, 3)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("instance/Aligned_n3_m3", bm_instance,
                               Algorithm::kAlignedPaxos, 3, 3)
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
