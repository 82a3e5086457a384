// Non-equivocating broadcast (Algorithm 2): wall-clock cost of simulating
// ten broadcasts from p1 delivered at every process, n = 3 / 5 / 7, m = 3.
// Delivery delays and equivocation suppression are asserted in
// tests/nonequiv_test.cpp.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <vector>

#include "src/core/nonequiv_broadcast.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"

using namespace mnm;
using namespace mnm::core;

namespace {

struct NebWorld {
  NebWorld(std::size_t n, std::size_t m) : n(n), keystore(7) {
    for (std::size_t i = 0; i < m; ++i) {
      auto mp = std::make_unique<mem::Memory>(exec, static_cast<MemoryId>(i + 1));
      regions = make_neb_regions(*mp, n);
      memories.push_back(std::move(mp));
      ifc.push_back(memories.back().get());
    }
    for (ProcessId p : all_processes(n)) {
      signers.push_back(keystore.register_process(p));
      slots.push_back(std::make_unique<NebSlots>(exec, ifc, regions));
      nebs.push_back(std::make_unique<NonEquivBroadcast>(
          exec, *slots.back(), keystore, signers.back()));
      nebs.back()->start();
    }
  }

  std::size_t n;
  sim::Executor exec;
  crypto::KeyStore keystore;
  std::vector<std::unique_ptr<mem::Memory>> memories;
  std::vector<mem::MemoryIface*> ifc;
  NebRegions regions;
  std::vector<crypto::Signer> signers;
  std::vector<std::unique_ptr<NebSlots>> slots;
  std::vector<std::unique_ptr<NonEquivBroadcast>> nebs;
};

void bm_broadcast_deliver(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::uint64_t hashed = 0, skipped = 0;
  for (auto _ : state) {
    NebWorld w(n, 3);
    std::size_t delivered = 0;
    for (ProcessId p : all_processes(n)) {
      w.exec.spawn([](NonEquivBroadcast* neb, std::size_t* count) -> sim::Task<void> {
        while (true) {
          (void)co_await neb->deliveries().recv();
          ++*count;
        }
      }(w.nebs[p - 1].get(), &delivered));
    }
    w.exec.spawn([](NonEquivBroadcast* neb) -> sim::Task<void> {
      for (int i = 0; i < 10; ++i) (void)co_await neb->broadcast(Bytes(64, 1));
    }(w.nebs[0].get()));
    w.exec.run_until([&] { return delivered >= 10 * n; }, 100000);
    benchmark::DoNotOptimize(delivered);
    hashed = skipped = 0;
    for (const auto& neb : w.nebs) {
      hashed += neb->suffix_bytes_hashed();
      skipped += neb->prefix_bytes_skipped();
    }
  }
  state.counters["deliveries"] = static_cast<double>(10 * n);
  // Suffix-digest verification accounting (last iteration): identical 64-byte
  // payloads share their whole prefix, so per-delivery hashing stays O(new
  // bytes) — the skipped column dwarfs the hashed one as k grows.
  state.counters["suffix_bytes_hashed"] = static_cast<double>(hashed);
  state.counters["prefix_bytes_skipped"] = static_cast<double>(skipped);
}
BENCHMARK(bm_broadcast_deliver)->Arg(3)->Arg(5)->Arg(7)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
