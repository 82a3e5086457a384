#include "src/reconfig/migrator.hpp"

#include <cassert>
#include <utility>

#include "src/kv/range.hpp"
#include "src/sim/select.hpp"

namespace mnm::reconfig {

Migrator::Migrator(sim::Executor& exec, core::Omega& omega, TableView& view,
                   kv::ShardBackend config_group, kv::Router& router)
    : exec_(&exec),
      omega_(&omega),
      view_(&view),
      config_group_(std::move(config_group)),
      router_(&router) {
  admin_client_ = router_->register_admin_client();
}

void Migrator::rebind_config(ProcessId p, smr::Replica* replica) {
  if (p < 1 || p > config_group_.replicas.size()) return;
  config_group_.replicas[p - 1] = replica;
}

void Migrator::submit_config(const Bytes& wire) {
  config_group_.submit(*omega_, wire);
  // Config changes are rare: flush immediately, no batching to wait for
  // (flushing an empty open batch is a no-op).
  for (smr::Replica* r : config_group_.replicas) {
    if (r != nullptr) r->flush();
  }
}

sim::Task<bool> Migrator::propose(ConfigChange c) {
  // A structurally invalid change (unknown group, src owns nothing) would
  // reject on every replica and the target epoch would never arrive:
  // pre-check with the same pure function the replicas run.
  if (!apply_change(view_->table(), c).has_value()) co_return false;
  const std::uint64_t target = c.base_epoch + 1;
  const Bytes wire = encode_config_change(c);
  submit_config(wire);
  ++proposals_;
  while (true) {
    // Snapshot before checking (no lost wakeup).
    const std::uint64_t seen = view_->changed().version();
    if (view_->epoch() >= target) break;
    sim::Select sel(*exec_);
    sel.on(view_->changed(), seen)
        .until(exec_->now() + kProposeTimeout);
    const int which = co_await sel;
    if (view_->epoch() >= target) break;
    if (which == sim::Select::kTimedOut) {
      // The proposal can die with a crashing config leader; the duplicate
      // is CAS-rejected if the original actually landed.
      submit_config(wire);
      ++proposals_;
    }
  }
  co_return view_->changes()[target - 1] == c;
}

sim::Task<void> Migrator::migrate(std::uint64_t epoch) {
  // Serial driver: the view is still at `epoch` (nothing proposes past it
  // until this migration completes).
  assert(view_->epoch() == epoch && "reconfig::Migrator: serial driver only");
  const ConfigChange c = view_->changes()[epoch - 1];
  const kv::ShardTable prev = view_->table_at(epoch - 1);
  const kv::ShardTable& next = view_->table();

  // The moved buckets, in new-table indexing: owned by dst now, owned by
  // src before (a doubling maps new bucket b to old bucket b mod oldB).
  std::vector<std::uint32_t> moved;
  for (std::size_t b = 0; b < next.buckets.size(); ++b) {
    const std::uint32_t before = prev.buckets[b % prev.buckets.size()];
    if (next.buckets[b] == c.dst && before == c.src) {
      moved.push_back(static_cast<std::uint32_t>(b));
    }
  }
  // apply_change rejects changes that move nothing, so `moved` is never
  // empty for an accepted epoch.
  assert(!moved.empty());

  kv::RangeSpec spec;
  spec.epoch = epoch;
  spec.table_buckets = static_cast<std::uint32_t>(next.buckets.size());
  spec.buckets = moved;
  const Bytes spec_bytes = encode_range_spec(spec);

  // SEAL — replicated through the source group's log. From the slot this
  // applies, client ops on the moved buckets bounce.
  kv::Command seal;
  seal.op = kv::Op::kSeal;
  seal.value = spec_bytes;
  const kv::Reply sealed =
      co_await router_->execute_on(admin_client_, c.src, seal);
  if (sealed.status != kv::Status::kOk) {
    // Deterministic reject (stale epoch / geometry mismatch): the machines
    // counted it in admin_rejected(); abandon rather than drain forever.
    co_return;
  }

  // DRAIN — read the sealed range from a source replica's machine. The
  // validator decodes (checksummed) and pins the spec; the fetch re-reads
  // after each apply there until an export passes.
  kv::RangeSnapshot snap;
  auto valid = [&](util::ByteView payload) {
    std::optional<kv::RangeSnapshot> s = kv::decode_range_snapshot(payload);
    if (!s.has_value() || !(s->spec == spec)) return false;
    snap = std::move(*s);
    return true;
  };
  Bytes snap_bytes;
  while (true) {
    smr::Replica* source = router_->leader_of(c.src);
    if (source != nullptr) {
      snap_bytes = co_await source->log().fetch_range(spec_bytes, valid);
      if (!snap_bytes.empty()) break;
      // Empty ⇒ the picked replica halted mid-fetch (crash plan): let Ω
      // move, then re-pick.
    }
    co_await exec_->sleep(kDrainRetry);
  }

  // INSTALL — the full snapshot rides the destination group's log, so
  // every dst replica imports identical state at the same slot and opens
  // the buckets together.
  kv::Command install;
  install.op = kv::Op::kInstall;
  install.value = snap_bytes;
  const kv::Reply installed =
      co_await router_->execute_on(admin_client_, c.dst, install);
  if (installed.status == kv::Status::kOk) {
    keys_moved_ += snap.pairs.size();
  }

  // PURGE — the destination serves the buckets now; drop the sealed-away
  // pairs at the source.
  kv::Command purge;
  purge.op = kv::Op::kPurge;
  purge.value = spec_bytes;
  (void)co_await router_->execute_on(admin_client_, c.src, purge);
}

sim::Task<bool> Migrator::run_change(ChangeKind kind, std::uint32_t src,
                                     std::uint32_t dst) {
  ++active_;
  ConfigChange c;
  c.kind = kind;
  c.base_epoch = view_->epoch();
  c.src = src;
  c.dst = dst;
  const bool won = co_await propose(c);
  if (won) {
    co_await migrate(c.base_epoch + 1);
    ++migrations_;
  }
  --active_;
  co_return won;
}

}  // namespace mnm::reconfig
