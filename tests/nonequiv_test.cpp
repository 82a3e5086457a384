// Tests for non-equivocating broadcast (Algorithm 2): the three properties
// of Definition 1, the 6-delay cost, and equivocation suppression.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/nonequiv_broadcast.hpp"
#include "src/crypto/signature.hpp"
#include "src/mem/memory.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/rng.hpp"

namespace mnm::core {
namespace {

using mem::Memory;
using sim::Executor;
using sim::Task;
using util::to_bytes;
using util::to_string;

struct NebFixture {
  explicit NebFixture(std::size_t n, std::size_t m) : n(n), keystore(7) {
    for (std::size_t i = 0; i < m; ++i) {
      auto mp = std::make_unique<Memory>(exec, static_cast<MemoryId>(i + 1));
      regions = make_neb_regions(*mp, n);
      memories.push_back(std::move(mp));
      iface.push_back(memories.back().get());
    }
    for (ProcessId p : all_processes(n)) {
      signers.push_back(keystore.register_process(p));
      slots.push_back(std::make_unique<NebSlots>(exec, iface, regions));
      nebs.push_back(std::make_unique<NonEquivBroadcast>(
          exec, *slots.back(), keystore, signers.back()));
    }
  }

  void start_all() {
    for (auto& neb : nebs) neb->start();
  }

  /// Collect deliveries per process into maps for assertions.
  void collect(std::map<ProcessId, std::vector<NebDelivery>>& out,
               std::size_t expected_total, sim::Time horizon = 2000) {
    for (ProcessId p : all_processes(n)) {
      exec.spawn([](NonEquivBroadcast* neb,
                    std::vector<NebDelivery>* sink) -> Task<void> {
        while (true) {
          sink->push_back(co_await neb->deliveries().recv());
        }
      }(nebs[p - 1].get(), &out[p]));
    }
    exec.run_until(
        [&] {
          std::size_t total = 0;
          for (auto& [p, v] : out) total += v.size();
          return total >= expected_total;
        },
        horizon);
  }

  std::size_t n;
  Executor exec;
  crypto::KeyStore keystore;
  std::vector<std::unique_ptr<Memory>> memories;
  std::vector<mem::MemoryIface*> iface;
  NebRegions regions;
  std::vector<crypto::Signer> signers;
  std::vector<std::unique_ptr<NebSlots>> slots;
  std::vector<std::unique_ptr<NonEquivBroadcast>> nebs;
};

TEST(NebWire, SlotEncodingRoundTrip) {
  crypto::KeyStore ks(1);
  crypto::Signer s = ks.register_process(1);
  const Bytes msg = to_bytes("hello");
  const crypto::Signature sig = s.sign(neb_signing_bytes(3, msg));
  const auto decoded = decode_neb_slot(encode_neb_slot(3, msg, sig));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->k, 3u);
  EXPECT_EQ(to_string(decoded->message), "hello");
  EXPECT_TRUE(ks.valid_from(1, neb_signing_bytes(decoded->k, decoded->message),
                            decoded->sig));
}

TEST(NebWire, RejectsGarbage) {
  EXPECT_FALSE(decode_neb_slot(to_bytes("nonsense")).has_value());
  EXPECT_FALSE(decode_neb_slot({}).has_value());
}

TEST(NebWire, SuffixDigestSigningBindsPrefixLength) {
  // neb_signing_bytes(k, m, p) hashes only m[p:]; the same message with a
  // different prefix claim signs differently, and two messages sharing a
  // prefix of p bytes sign identically iff their suffixes match.
  crypto::KeyStore ks(1);
  crypto::Signer s = ks.register_process(1);
  const Bytes m1 = to_bytes("shared-prefix|tail-one");
  const Bytes m2 = to_bytes("shared-prefix|tail-two");
  EXPECT_NE(neb_signing_bytes(3, m1, 0), neb_signing_bytes(3, m1, 14));
  EXPECT_NE(neb_signing_bytes(3, m1, 14), neb_signing_bytes(3, m2, 14));
  // Suffix equality ⇒ identical signing bytes under the same prefix claim.
  const Bytes m3 = to_bytes("SHARED-PREFIX|tail-one");
  EXPECT_EQ(neb_signing_bytes(3, m1, 14), neb_signing_bytes(3, m3, 14));

  const crypto::Signature sig = s.sign(neb_signing_bytes(7, m1, 14));
  const auto decoded = decode_neb_slot(encode_neb_slot(7, m1, sig, 14));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->k, 7u);
  EXPECT_EQ(decoded->prefix_len, 14u);
  EXPECT_TRUE(ks.valid_from(
      1, neb_signing_bytes(decoded->k, decoded->message, decoded->prefix_len),
      decoded->sig));
}

TEST(NonEquivBroadcast, SharedPrefixMessagesDeliverInOrder) {
  // Broadcasts whose wires share long prefixes (the t-send shape: append-only
  // history first) exercise the prefix_len > 0 verification path: receivers
  // must anchor each claim against the previous delivered message.
  NebFixture f(3, 3);
  f.start_all();
  std::map<ProcessId, std::vector<NebDelivery>> got;
  f.exec.spawn([](NonEquivBroadcast* neb) -> Task<void> {
    (void)co_await neb->broadcast(to_bytes("hist|AAAA|m1"));
    (void)co_await neb->broadcast(to_bytes("hist|AAAA|m1|BBBB|m2"));
    (void)co_await neb->broadcast(to_bytes("hist|AAAA|m1|BBBB|m2|CCCC|m3"));
  }(f.nebs[0].get()));
  f.collect(got, /*expected_total=*/9);
  for (ProcessId p : all_processes(3)) {
    ASSERT_EQ(got[p].size(), 3u) << "process " << p;
    EXPECT_EQ(to_string(got[p][0].message), "hist|AAAA|m1");
    EXPECT_EQ(to_string(got[p][1].message), "hist|AAAA|m1|BBBB|m2");
    EXPECT_EQ(to_string(got[p][2].message), "hist|AAAA|m1|BBBB|m2|CCCC|m3");
  }
}

TEST(NonEquivBroadcast, ForgedPrefixClaimsNeverDeliver) {
  // A Byzantine broadcaster writes slots whose prefix_len claims are bogus:
  // (a) longer than the previous delivered message, (b) claiming shared
  // bytes that differ from it. Correct processes must reject both.
  NebFixture f(3, 3);
  f.nebs[0]->start();
  f.nebs[2]->start();

  f.exec.spawn([](NebFixture* f) -> Task<void> {
    // k = 1 with a nonzero prefix claim: there is no previous message, so
    // any prefix_len > 0 is unverifiable.
    const Bytes m1 = to_bytes("first");
    const crypto::Signature s1 = f->signers[1].sign(neb_signing_bytes(1, m1, 3));
    (void)co_await f->iface[0]->write(2, f->regions.per_process.at(2), "neb/2/1/2",
                                      encode_neb_slot(1, m1, s1, 3));
  }(&f));
  std::map<ProcessId, std::vector<NebDelivery>> got;
  for (ProcessId p : {ProcessId{1}, ProcessId{3}}) {
    f.exec.spawn([](NonEquivBroadcast* neb,
                    std::vector<NebDelivery>* sink) -> Task<void> {
      while (true) sink->push_back(co_await neb->deliveries().recv());
    }(f.nebs[p - 1].get(), &got[p]));
  }
  f.exec.run(800);
  EXPECT_TRUE(got[1].empty());
  EXPECT_TRUE(got[3].empty());
}

TEST(NonEquivBroadcast, PrefixMismatchAgainstDeliveredHistoryRejected) {
  // q = 2 broadcasts k = 1 honestly; its k = 2 slot claims a prefix shared
  // with k = 1 but the actual bytes differ — the memcmp anchor must fail.
  NebFixture f(3, 3);
  f.nebs[0]->start();
  f.nebs[2]->start();

  f.exec.spawn([](NebFixture* f) -> Task<void> {
    const Bytes m1 = to_bytes("honest-first");
    const crypto::Signature s1 = f->signers[1].sign(neb_signing_bytes(1, m1, 0));
    for (std::size_t i = 0; i < f->iface.size(); ++i) {
      (void)co_await f->iface[i]->write(2, f->regions.per_process.at(2), "neb/2/1/2",
                                        encode_neb_slot(1, m1, s1, 0));
    }
    // k = 2: claims 7 shared bytes with "honest-first" but starts "HONEST-".
    const Bytes m2 = to_bytes("HONEST-second");
    const crypto::Signature s2 = f->signers[1].sign(neb_signing_bytes(2, m2, 7));
    for (std::size_t i = 0; i < f->iface.size(); ++i) {
      (void)co_await f->iface[i]->write(2, f->regions.per_process.at(2), "neb/2/2/2",
                                        encode_neb_slot(2, m2, s2, 7));
    }
  }(&f));
  std::map<ProcessId, std::vector<NebDelivery>> got;
  for (ProcessId p : {ProcessId{1}, ProcessId{3}}) {
    f.exec.spawn([](NonEquivBroadcast* neb,
                    std::vector<NebDelivery>* sink) -> Task<void> {
      while (true) sink->push_back(co_await neb->deliveries().recv());
    }(f.nebs[p - 1].get(), &got[p]));
  }
  f.exec.run(1500);
  // k = 1 delivers (it is honest); the forged k = 2 never does.
  for (ProcessId p : {ProcessId{1}, ProcessId{3}}) {
    ASSERT_EQ(got[p].size(), 1u) << "process " << p;
    EXPECT_EQ(to_string(got[p][0].message), "honest-first");
  }
}

TEST(NonEquivBroadcast, Property1AllCorrectDeliver) {
  NebFixture f(3, 3);
  f.start_all();
  std::map<ProcessId, std::vector<NebDelivery>> got;
  f.exec.spawn([](NonEquivBroadcast* neb) -> Task<void> {
    (void)co_await neb->broadcast(to_bytes("m1"));
  }(f.nebs[0].get()));
  f.collect(got, /*expected_total=*/3);
  for (ProcessId p : all_processes(3)) {
    ASSERT_EQ(got[p].size(), 1u) << "process " << p;
    EXPECT_EQ(got[p][0].from, 1u);
    EXPECT_EQ(got[p][0].k, 1u);
    EXPECT_EQ(to_string(got[p][0].message), "m1");
  }
}

TEST(NonEquivBroadcast, SequenceNumbersDeliverInOrder) {
  NebFixture f(3, 3);
  f.start_all();
  std::map<ProcessId, std::vector<NebDelivery>> got;
  f.exec.spawn([](NonEquivBroadcast* neb) -> Task<void> {
    (void)co_await neb->broadcast(to_bytes("a"));
    (void)co_await neb->broadcast(to_bytes("b"));
    (void)co_await neb->broadcast(to_bytes("c"));
  }(f.nebs[1].get()));
  f.collect(got, /*expected_total=*/9);
  for (ProcessId p : all_processes(3)) {
    ASSERT_EQ(got[p].size(), 3u);
    EXPECT_EQ(to_string(got[p][0].message), "a");
    EXPECT_EQ(to_string(got[p][1].message), "b");
    EXPECT_EQ(to_string(got[p][2].message), "c");
    EXPECT_EQ(got[p][2].k, 3u);
  }
}

TEST(NonEquivBroadcast, DeliveryCostsSixDelays) {
  // Footnote 2: non-equivocating broadcast incurs at least 6 delays —
  // read (2) + copy write (2) + cross-check reads (2) after the slot is
  // visible, and the broadcast write completes at 2. Measured, with m = 3:
  // every process delivers at the same instant, 12 / 16 / 20 delays after
  // p1 broadcasts at n = 3 / 5 / 7, whatever the payload size. That is
  // 2n + 6: each scanner's first pass reads the n head slots one after
  // another from 0 and misses the write, which takes effect at 1, so the
  // delivering pass starts at 2n.
  struct Row {
    std::size_t n;
    sim::Time delay;
  };
  for (const Row& row : {Row{3, 12}, Row{5, 16}, Row{7, 20}}) {
    const std::size_t n = row.n;
    for (std::size_t bytes : {16u, 1024u}) {
      NebFixture f(n, 3);
      f.start_all();
      std::vector<sim::Time> delivered_at;
      for (ProcessId p : all_processes(n)) {
        f.exec.spawn([](Executor* e, NonEquivBroadcast* neb,
                        std::vector<sim::Time>* at) -> Task<void> {
          (void)co_await neb->deliveries().recv();
          at->push_back(e->now());
        }(&f.exec, f.nebs[p - 1].get(), &delivered_at));
      }
      f.exec.spawn([](NonEquivBroadcast* neb, std::size_t bytes) -> Task<void> {
        (void)co_await neb->broadcast(Bytes(bytes, 0xAB));
      }(f.nebs[0].get(), bytes));
      f.exec.run_until([&] { return delivered_at.size() == n; }, 5000);
      ASSERT_EQ(delivered_at.size(), n) << "n=" << n << " bytes=" << bytes;
      EXPECT_EQ(delivered_at.front(), row.delay) << "n=" << n << " bytes=" << bytes;
      EXPECT_EQ(delivered_at.back(), row.delay) << "n=" << n << " bytes=" << bytes;
    }
  }
}

TEST(NonEquivBroadcast, Property2EquivocatorNeverSplitsCorrectProcesses) {
  // Byzantine p2 writes different validly-signed values for k=1 directly to
  // different memories. No two correct processes may deliver different
  // messages; with 2-of-3 read quorums seeing both values, typically nobody
  // delivers.
  NebFixture f(3, 3);
  std::map<ProcessId, std::vector<NebDelivery>> got;
  // Start only the correct processes' scanners (p2 is the attacker).
  f.nebs[0]->start();
  f.nebs[2]->start();

  const std::string slot = "neb/2/1/2";
  f.exec.spawn([](NebFixture* f, const std::string slot) -> Task<void> {
    for (std::size_t i = 0; i < f->iface.size(); ++i) {
      const Bytes msg = to_bytes("equiv-" + std::to_string(i));
      const crypto::Signature sig = f->signers[1].sign(neb_signing_bytes(1, msg));
      (void)co_await f->iface[i]->write(2, f->regions.per_process.at(2), slot,
                                        encode_neb_slot(1, msg, sig));
    }
  }(&f, slot));

  for (ProcessId p : {ProcessId{1}, ProcessId{3}}) {
    f.exec.spawn([](NonEquivBroadcast* neb,
                    std::vector<NebDelivery>* sink) -> Task<void> {
      while (true) sink->push_back(co_await neb->deliveries().recv());
    }(f.nebs[p - 1].get(), &got[p]));
  }
  f.exec.run(1500);

  // Property 2: if both delivered, the messages must match.
  if (!got[1].empty() && !got[3].empty()) {
    EXPECT_EQ(to_string(got[1][0].message), to_string(got[3][0].message));
  }

  // 500 seeded attacks per shape, every process's scanner running: each
  // memory gets a coin-flip value, on all three memories or on two of them
  // (the quorum-split shape most likely to give divergent reads). No attack
  // splits p1 and p3; in 255 of each 500 someone delivers.
  for (const bool partial : {false, true}) {
    int split = 0, delivered = 0;
    for (int trial = 0; trial < 500; ++trial) {
      NebFixture w(3, 3);
      w.start_all();
      sim::Rng rng(static_cast<std::uint64_t>(trial) * 31 + 7);
      w.exec.spawn([](NebFixture* w, sim::Rng rng, bool partial) -> Task<void> {
        for (std::size_t i = 0; i < w->iface.size(); ++i) {
          if (partial && i == 2) continue;
          const Bytes msg = to_bytes("equiv-" + std::to_string(rng.below(2)));
          const crypto::Signature sig =
              w->signers[1].sign(neb_signing_bytes(1, msg));
          (void)co_await w->iface[i]->write(2, w->regions.per_process.at(2), "neb/2/1/2",
                                            encode_neb_slot(1, msg, sig));
        }
      }(&w, rng.fork(), partial));
      std::map<ProcessId, std::string> first;
      for (ProcessId p : {ProcessId{1}, ProcessId{3}}) {
        w.exec.spawn([](NonEquivBroadcast* neb, std::string* sink) -> Task<void> {
          const NebDelivery d = co_await neb->deliveries().recv();
          *sink = to_string(d.message);
        }(w.nebs[p - 1].get(), &first[p]));
      }
      w.exec.run(400);
      if (!first[1].empty() || !first[3].empty()) ++delivered;
      if (!first[1].empty() && !first[3].empty() && first[1] != first[3]) {
        ++split;
      }
    }
    EXPECT_EQ(split, 0) << "partial=" << partial;
    EXPECT_EQ(delivered, 255) << "partial=" << partial;
  }
}

TEST(NonEquivBroadcast, InvalidSignatureNeverDelivers) {
  NebFixture f(3, 3);
  f.nebs[0]->start();
  f.nebs[2]->start();
  // p2 writes a slot signed with the *wrong* key binding (signs as itself
  // but over different bytes).
  f.exec.spawn([](NebFixture* f) -> Task<void> {
    const Bytes msg = to_bytes("forged");
    const crypto::Signature sig = f->signers[1].sign(to_bytes("not the msg"));
    (void)co_await f->iface[0]->write(2, f->regions.per_process.at(2), "neb/2/1/2",
                                      encode_neb_slot(1, msg, sig));
  }(&f));
  std::map<ProcessId, std::vector<NebDelivery>> got;
  for (ProcessId p : {ProcessId{1}, ProcessId{3}}) {
    f.exec.spawn([](NonEquivBroadcast* neb,
                    std::vector<NebDelivery>* sink) -> Task<void> {
      while (true) sink->push_back(co_await neb->deliveries().recv());
    }(f.nebs[p - 1].get(), &got[p]));
  }
  f.exec.run(800);
  EXPECT_TRUE(got[1].empty());
  EXPECT_TRUE(got[3].empty());
}

TEST(NonEquivBroadcast, ToleratesMemoryCrashMinority) {
  NebFixture f(3, 3);
  f.memories[1]->crash();
  f.start_all();
  std::map<ProcessId, std::vector<NebDelivery>> got;
  f.exec.spawn([](NonEquivBroadcast* neb) -> Task<void> {
    (void)co_await neb->broadcast(to_bytes("resilient"));
  }(f.nebs[2].get()));
  f.collect(got, 3);
  for (ProcessId p : all_processes(3)) {
    ASSERT_EQ(got[p].size(), 1u);
    EXPECT_EQ(to_string(got[p][0].message), "resilient");
  }
}

TEST(NonEquivBroadcast, TryDeliverReturnsFalseOnEmptySlot) {
  NebFixture f(3, 3);
  bool result = true;
  f.exec.spawn([](NonEquivBroadcast* neb, bool* out) -> Task<void> {
    *out = co_await neb->try_deliver(2);
  }(f.nebs[0].get(), &result));
  f.exec.run(100);
  EXPECT_FALSE(result);
}

}  // namespace
}  // namespace mnm::core
