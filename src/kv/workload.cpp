#include "src/kv/workload.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>

namespace mnm::kv {

namespace {

/// Account keys live in their own prefix, disjoint from the plain-mix
/// "key-<i>" space — plain writes can never touch a balance.
Bytes account_key(std::size_t i) {
  return util::to_bytes("acct-" + std::to_string(i));
}

/// Balances are decimal int64 strings; an absent key is balance 0. In an
/// unsigned Byzantine run a hostile proposer can plant arbitrary bytes in
/// an account, so the parse is total: unparsable (or >64-bit) bytes read as
/// 0 instead of throwing out of the client loop — the harness's balance
/// rollup separately fails validity on such values.
std::int64_t parse_balance(const Bytes& raw) {
  const char* begin = reinterpret_cast<const char*>(raw.data());
  const char* end = begin + raw.size();
  std::int64_t v = 0;
  const std::from_chars_result res = std::from_chars(begin, end, v);
  return (res.ec == std::errc{} && res.ptr == end) ? v : 0;
}

}  // namespace

double read_fraction(Mix mix) {
  switch (mix) {
    case Mix::kA: return 0.5;
    case Mix::kB: return 0.95;
    case Mix::kC: return 1.0;
  }
  return 1.0;
}

ZipfGenerator::ZipfGenerator(std::size_t n, double theta)
    : n_(n == 0 ? 1 : n), theta_(theta), alpha_(1.0 / (1.0 - theta)) {
  // theta = 1 degenerates silently (alpha = inf makes every draw return
  // n - 1); the YCSB generator is defined for theta in (0, 1).
  assert(theta > 0.0 && theta < 1.0 &&
         "kv::ZipfGenerator: theta must be in (0, 1)");
  double zetan = 0.0;
  for (std::size_t i = 1; i <= n_; ++i) {
    zetan += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
  zetan_ = zetan;
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

std::size_t ZipfGenerator::next(sim::Rng& rng) {
  // The standard YCSB rejection-free mapping (Gray et al.'s quickly
  // generating billion-record synthetic databases).
  const double u = rng.unit();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const std::size_t idx = static_cast<std::size_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return idx >= n_ ? n_ - 1 : idx;
}

Workload::Workload(sim::Executor& exec, Router& router, WorkloadConfig config,
                   std::uint64_t seed)
    : exec_(&exec),
      router_(&router),
      config_(config),
      zipf_(config.keys, kKeyZipfTheta) {
  // Checked in every build: with asserts compiled out, an empty key space
  // divides by zero and a transfer wanting more distinct accounts than
  // exist spins forever without yielding to the executor.
  if (config_.keys < 1) {
    throw std::invalid_argument("kv::Workload: key space must be non-empty");
  }
  if (config_.txn_fraction > 0.0) {
    if (config_.txn_accounts < 2) {
      throw std::invalid_argument(
          "kv::Workload: a transfer needs at least two accounts");
    }
    if (config_.accounts < config_.txn_accounts) {
      throw std::invalid_argument(
          "kv::Workload: account space smaller than one transfer");
    }
    if (!(config_.txn_zipf_theta >= 0.0 && config_.txn_zipf_theta < 1.0)) {
      throw std::invalid_argument(
          "kv::Workload: txn_zipf_theta must be in [0, 1)");
    }
    coordinator_.emplace(router);
    if (config_.txn_zipf_theta > 0.0) {
      txn_zipf_.emplace(config_.accounts, config_.txn_zipf_theta);
    }
  }
  sim::Rng root(seed ^ 0x79C5B454ULL);
  clients_.resize(config_.clients);
  for (Client& c : clients_) {
    c.id = router_->register_client();
    c.rng = root.fork();
  }
}

void Workload::start() {
  assert(!started_ && "kv::Workload::start called twice");
  started_ = true;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    exec_->spawn(client_loop(this, i));
  }
}

std::size_t Workload::next_key(Client& c) {
  return config_.dist == KeyDist::kZipfian ? zipf_.next(c.rng)
                                           : c.rng.below(config_.keys);
}

std::size_t Workload::next_account(Client& c) {
  return txn_zipf_.has_value() ? txn_zipf_->next(c.rng)
                               : c.rng.below(config_.accounts);
}

Command Workload::next_op(Client& c) {
  Command cmd;
  const std::size_t key = next_key(c);
  std::string key_name = "key-";
  key_name += std::to_string(key);
  cmd.key = util::to_bytes(key_name);
  if (c.rng.unit() < read_fraction(config_.mix)) {
    cmd.op = Op::kGet;
    return cmd;
  }
  const Bytes fresh = util::to_bytes("v" + std::to_string(c.id) + "." +
                                     std::to_string(c.rng.below(1u << 20)));
  const double w = c.rng.unit();
  if (w < 0.8) {
    cmd.op = Op::kPut;
    cmd.value = fresh;
  } else if (w < 0.9) {
    cmd.op = Op::kCas;
    cmd.value = fresh;
    // Expect the value this client last saw for the key (empty = absent):
    // succeeds until another client slips a write in between — both CAS
    // outcomes occur, deterministically.
    const auto it = c.seen.find(key);
    if (it != c.seen.end()) cmd.expected = it->second;
  } else {
    cmd.op = Op::kDel;
  }
  return cmd;
}

void Workload::record(const Command& cmd, const Reply& reply,
                      sim::Time issued_at) {
  ++stats_.ops;
  stats_.last_reply_at = exec_->now();
  stats_.latencies.push_back(exec_->now() - issued_at);
  switch (cmd.op) {
    case Op::kGet: ++stats_.reads; break;
    case Op::kPut: ++stats_.puts; break;
    case Op::kDel: ++stats_.dels; break;
    case Op::kCas: ++stats_.cas_ops; break;
    default: break;  // admin ops never come from the workload generator
  }
  if (reply.status == Status::kNotFound) ++stats_.not_found;
  if (reply.status == Status::kCasMismatch) ++stats_.cas_mismatch;
}

sim::Task<void> Workload::run_txn(Workload* self, Client& c) {
  const sim::Time started_at = self->exec_->now();
  ++c.txns_started;
  // Txn ids are (client, ordinal) — unique per run, derived with no extra
  // rng draws.
  const txn::TxnId id = (static_cast<txn::TxnId>(c.id) << 24) | c.txns_started;

  // Draw distinct accounts (redraw duplicates — deterministic, and the
  // account space is larger than one transfer so this terminates).
  std::vector<std::size_t> accts;
  while (accts.size() < self->config_.txn_accounts) {
    const std::size_t a = self->next_account(c);
    if (std::find(accts.begin(), accts.end(), a) == accts.end()) {
      accts.push_back(a);
    }
  }

  // Read every account's committed balance — each read is an ordinary
  // counted client op through the same session the 2PC records will use.
  std::vector<Bytes> read_raw(accts.size());
  std::vector<std::int64_t> balance(accts.size(), 0);
  for (std::size_t i = 0; i < accts.size(); ++i) {
    Command get;
    get.op = Op::kGet;
    get.key = account_key(accts[i]);
    const sim::Time issued_at = self->exec_->now();
    const Reply reply = co_await self->router_->execute(c.id, get);
    self->record(get, reply, issued_at);
    if (reply.status == Status::kOk) {
      read_raw[i] = reply.value;
      balance[i] = parse_balance(reply.value);
    }
  }

  // The transfer: debit accts[0] by delta per credited account, credit the
  // rest — Σ balances is invariant under every committed transfer, which is
  // the harness's atomicity check. Each prepare guards on the exact bytes
  // read (empty = absent), so a write slipping in between read and prepare
  // aborts the transfer instead of losing the update.
  const std::int64_t delta = 1 + static_cast<std::int64_t>(c.rng.below(100));
  std::vector<txn::Write> writes(accts.size());
  for (std::size_t i = 0; i < accts.size(); ++i) {
    writes[i].kind = txn::WriteKind::kPut;
    writes[i].key = account_key(accts[i]);
    const std::int64_t next =
        i == 0
            ? balance[i] - delta * static_cast<std::int64_t>(accts.size() - 1)
            : balance[i] + delta;
    writes[i].value = util::to_bytes(std::to_string(next));
    writes[i].has_expected = true;
    writes[i].expected = read_raw[i];
  }

  const bool crash_here = self->config_.txn_crash_client == c.id &&
                          c.txns_started == self->config_.txn_crash_txn;
  // Foreign txn id for the scripted conflict: top bit set, which no
  // coordinator-generated (client << 24 | ordinal) id ever carries.
  const txn::TxnId blocker_txn = id | (std::uint64_t{1} << 63);
  if (crash_here && self->config_.txn_crash_conflict) {
    // Pre-lock the crash transaction's last key from a separate session so
    // its final prepare is refused (see WorkloadConfig::txn_crash_conflict).
    // The prepare is an ordinary counted client op; it applies exactly once.
    if (self->blocker_ == 0) self->blocker_ = self->router_->register_client();
    txn::PrepareRecord pr;
    pr.txn = blocker_txn;
    pr.write = txn::WriteKind::kPut;
    pr.value = read_raw.back();
    Command block;
    block.op = Op::kTxnPrepare;
    block.key = writes.back().key;
    block.value = txn::encode_prepare(pr);
    (void)co_await self->router_->execute(self->blocker_, block);
    ++self->stats_.ops;
  }
  txn::TxnReport rep = co_await self->coordinator_->run(
      c.id, id, writes,
      crash_here ? self->config_.txn_crash_records : txn::kNoCrash);
  // Only records that applied fresh count toward ops — the recovery
  // replay's cached re-deliveries must not inflate the exactly-once sum.
  self->stats_.ops += rep.fresh_records;
  if (rep.outcome == txn::Outcome::kCrashed) {
    // Crash window: the coordinator is gone, locks stay held, conflicting
    // transfers abort against them. Then the recovered coordinator replays
    // the stream under the original seqs and drives it to a decision.
    co_await self->exec_->sleep(self->config_.txn_crash_pause);
    const txn::TxnReport rec = co_await self->coordinator_->recover(
        c.id, id, writes, rep.first_seq, rep.records);
    self->stats_.ops += rec.fresh_records;
    ++self->stats_.txn_recoveries;
    rep = rec;
    if (self->config_.txn_crash_conflict) {
      // Release the planted lock so the run ends with zero residual locks —
      // the harness atomicity check counts every held lock as a failure.
      txn::DecisionRecord dr;
      dr.txn = blocker_txn;
      Command release;
      release.op = Op::kTxnAbort;
      release.key = writes.back().key;
      release.value = txn::encode_decision(dr);
      (void)co_await self->router_->execute(self->blocker_, release);
      ++self->stats_.ops;
    }
  }
  ++self->stats_.txns;
  self->stats_.last_reply_at = self->exec_->now();
  if (rep.outcome == txn::Outcome::kCommitted) {
    ++self->stats_.txn_commits;
    self->stats_.txn_commit_latencies.push_back(self->exec_->now() -
                                                started_at);
  } else {
    ++self->stats_.txn_aborts;
  }
}

sim::Task<void> Workload::client_loop(Workload* self, std::size_t idx) {
  Client& c = self->clients_[idx];
  for (std::size_t i = 0; i < self->config_.ops_per_client; ++i) {
    // The txn draw only exists in transactional runs, so a plain run's rng
    // stream — and therefore its whole fingerprint — is unchanged.
    if (self->config_.txn_fraction > 0.0 &&
        c.rng.unit() < self->config_.txn_fraction) {
      co_await run_txn(self, c);
      continue;
    }
    const Command cmd = self->next_op(c);
    const sim::Time issued_at = self->exec_->now();
    const Reply reply = co_await self->router_->execute(c.id, cmd);
    self->record(cmd, reply, issued_at);

    // Track the value the store now holds for this key, as this client
    // observed it (for future CAS expectations).
    const std::size_t key = [&] {
      // key index back out of "key-<i>" — cheaper to recompute than carry.
      const std::string k = util::to_string(cmd.key);
      return static_cast<std::size_t>(std::stoull(k.substr(4)));
    }();
    switch (cmd.op) {
      case Op::kGet:
        if (reply.status == Status::kOk) {
          c.seen[key] = reply.value;
        } else {
          c.seen[key] = Bytes{};
        }
        break;
      case Op::kPut:
        c.seen[key] = cmd.value;
        break;
      case Op::kDel:
        c.seen[key] = Bytes{};
        break;
      case Op::kCas:
        c.seen[key] = reply.status == Status::kOk ? cmd.value : reply.value;
        break;
      default:
        break;  // admin ops never come from the workload generator
    }
  }
  ++self->finished_;
}

}  // namespace mnm::kv
