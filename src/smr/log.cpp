#include "src/smr/log.hpp"

#include <algorithm>
#include <cassert>

#include "src/sim/select.hpp"
#include "src/util/serde.hpp"

namespace mnm::smr {

Bytes encode_batch(const std::vector<Bytes>& commands) {
  std::size_t payload = 0;
  for (const Bytes& c : commands) payload += 4 + c.size();
  util::Writer w(4 + payload);
  w.u32(static_cast<std::uint32_t>(commands.size()));
  for (const Bytes& c : commands) w.bytes(c);
  return std::move(w).take();
}

std::vector<Bytes> decode_batch(util::ByteView raw) {
  try {
    util::Reader r(raw);
    const std::uint32_t count = r.u32();
    std::vector<Bytes> out;
    // The count is attacker-controlled (a Byzantine proposer can win a slot
    // with arbitrary bytes): cap the pre-size by the bytes actually present
    // — every command costs at least its 4-byte length prefix — so a huge
    // prefix on a tiny body cannot force a bad_alloc before parsing fails.
    out.reserve(std::min<std::size_t>(count, r.remaining() / 4));
    for (std::uint32_t i = 0; i < count; ++i) out.push_back(r.bytes());
    r.expect_end();
    return out;
  } catch (const util::SerdeError&) {
    return {};  // garbage batch applies as zero commands, deterministically
  }
}

sim::Time latency_percentile(const std::vector<sim::Time>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      static_cast<double>(sorted.size() - 1) * p / 100.0);
  return sorted[idx];
}

Log::Log(sim::Executor& exec, core::ConsensusEngine& engine, core::Omega& omega,
         StateMachine& sm, LogConfig config)
    : exec_(&exec),
      engine_(&engine),
      omega_(&omega),
      sm_(&sm),
      config_(config),
      pending_signal_(exec),
      stash_signal_(exec),
      applied_signal_(exec),
      recovering_signal_(exec),
      response_signal_(exec) {
  // Validation rule (see kMaxWindow): clamp rather than assert so Release
  // builds behave identically.
  config_.window = std::clamp<std::size_t>(config_.window, 1, kMaxWindow);
  config_.batch = std::clamp<std::size_t>(config_.batch, 1, kMaxWindow);
}

void Log::start(bool recover) {
  assert(!started_ && "smr::Log::start called twice");
  started_ = true;
  exec_->spawn(apply_loop());
  exec_->spawn(engine_->all_propose() ? pump_all() : pump_leader());
  // Recovery machinery only where the engine has a control channel: serving
  // needs retained state (snapshot_interval > 0), recovering needs a peer
  // to ask. Memory-routed Byzantine engines have neither.
  core::Transport* ctl = engine_->control_transport();
  const bool serve = config_.snapshot_interval > 0 && ctl != nullptr;
  recovering_ = recover && ctl != nullptr;
  if (serve || recovering_) exec_->spawn(control_loop());
  if (recovering_) exec_->spawn(catchup_driver());
}

void Log::halt() {
  if (halted_) return;
  halted_ = true;
  // Wake every Select this log's loops could be suspended in; each checks
  // halted_ on wakeup and returns. Loops parked on a channel recv (apply,
  // control) cannot be woken but are inert once the transport is dead.
  pending_signal_.bump();
  stash_signal_.bump();
  applied_signal_.bump();
  recovering_signal_.bump();
  response_signal_.bump();
}

void Log::submit(Bytes command) {
  open_batch_.push_back(std::move(command));
  if (open_batch_.size() >= config_.batch) flush();
}

void Log::flush() {
  if (open_batch_.empty()) return;
  pending_.push_back(Pending{encode_batch(open_batch_), exec_->now()});
  open_batch_.clear();
  pending_signal_.bump();
}

Log::Launch& Log::launch_record(Slot s) {
  const std::size_t idx = s - applied_len_;
  if (launches_.size() <= idx) launches_.resize(idx + 1);
  return launches_[idx];
}

Log::Launch Log::retire_launch() {
  if (launches_.empty()) return {};
  const Launch l = launches_.front();
  launches_.pop_front();
  if (l.launched && open_slots_ > 0) --open_slots_;
  return l;
}

Log::Pending Log::take_pending_or_noop() {
  if (pending_.empty()) return Pending{Bytes{}, exec_->now()};
  Pending p = std::move(pending_.front());
  pending_.pop_front();
  return p;
}

void Log::requeue_front(Pending group) {
  pending_.push_front(std::move(group));
  pending_signal_.bump();
}

void Log::launch(Slot slot, Pending p, bool retry) {
  // An already-applied slot (an all-propose engine that decided it without
  // us) is proposed without a record: it has left the window.
  if (slot >= applied_len_) {
    Launch& l = launch_record(slot);
    l.launched = true;
    l.enqueued_at = p.enqueued_at;
    l.proposed_at = exec_->now();
    l.in_flight = ++open_slots_;
    own_above_truncation_ = true;
  }
  exec_->spawn(drive(slot, std::move(p), retry));
}

sim::Task<void> Log::drive(Slot slot, Pending group, bool retry) {
  // The group survives the move into propose(): it detects a lost slot, and
  // is what the loss path re-queues, with the same payload bytes.
  const Bytes proposed = group.payload;
  const core::Decision d = co_await engine_->propose(slot, proposed);
  if (d.value == proposed) {
    // The won sample folds once: at apply if the slot is still open, here
    // if it already applied (the decision stream can beat propose).
    if (slot >= applied_len_) {
      launch_record(slot).won = true;
    } else if (!proposed.empty()) {  // a no-op filler has no sample
      stats_.won_latencies.push_back(d.decided_at - group.enqueued_at);
    }
  } else if (retry && !proposed.empty()) {
    // Our batch lost the slot (a hand-off adopted an older leader's
    // value): put it back at the front so it wins a later slot.
    requeue_front(std::move(group));
  }
}

void Log::apply_slot(Slot slot, const core::Decision& d) {
  const std::vector<Bytes> commands = decode_batch(d.value);
  const bool noop = commands.empty();
  stats_.commands += commands.size();
  if (noop) ++stats_.noop_slots;
  if (d.fast) ++stats_.fast_slots;
  stats_.last_apply_at = exec_->now();
  if (slot == 0) stats_.first_decided_at = d.decided_at;
  own_above_truncation_ = true;
  const Launch l = retire_launch();
  if (l.launched) {
    stats_.occupancy_slots += l.in_flight;
    stats_.occupancy_limit += config_.window;
    if (!noop) {
      stats_.queue_waits.push_back(
          l.proposed_at >= l.enqueued_at ? l.proposed_at - l.enqueued_at : 0);
      if (l.won) stats_.won_latencies.push_back(d.decided_at - l.enqueued_at);
    }
  }
  for (const Bytes& c : commands) sm_->apply(slot, c);
  if (config_.snapshot_interval > 0) retained_[slot] = d.value;
}

void Log::drain_stash() {
  // Drain the contiguous prefix: decisions may land in any order, the
  // state machine only ever sees slot order.
  for (auto it = stash_.find(applied_len_); it != stash_.end();
       it = stash_.find(applied_len_)) {
    apply_slot(applied_len_, it->second);
    stash_.erase(it);
    advance();
  }
}

sim::Task<void> Log::apply_loop() {
  while (true) {
    core::SlotDecision sd = co_await engine_->decisions().recv();
    if (sd.slot < applied_len_) continue;  // stale: applied via catch-up
    stash_.emplace(sd.slot, std::move(sd.decision));
    stash_signal_.bump();  // the catch-up driver's gap watch
    drain_stash();
  }
}

void Log::advance() {
  ++applied_len_;
  applied_signal_.bump();
  // Retire a window behind, so each slot's last frames drain first.
  if (applied_len_ > config_.window) {
    engine_->retire_below(applied_len_ - config_.window);
  }
  if (config_.snapshot_interval == 0) return;
  if (applied_len_ - snapshot_slot_ < config_.snapshot_interval) return;
  Bytes snap = sm_->snapshot();
  if (snap.empty()) return;  // machine doesn't support snapshots
  snapshot_ = std::move(snap);
  snapshot_slot_ = applied_len_;
  ++snapshots_taken_;
  compact_below(snapshot_slot_);
}

void Log::compact_below(Slot s) {
  retained_.erase(retained_.begin(), retained_.lower_bound(s));
  // A decision below the snapshot slot can no longer be applied in order —
  // the snapshot already covers it.
  stash_.erase(stash_.begin(), stash_.lower_bound(s));
  if (s <= truncated_upto_) return;
  slots_truncated_ += s - truncated_upto_;
  truncated_upto_ = s;
  own_above_truncation_ = !launches_.empty();
}

sim::Task<void> Log::pump_leader() {
  const ProcessId self = engine_->self();
  while (true) {
    if (halted_) co_return;
    // Snapshot every wait source BEFORE inspecting state: a bump landing
    // between the snapshot and the await makes the select ready
    // immediately, so wakeups cannot be lost.
    const std::uint64_t v_pending = pending_signal_.version();
    const std::uint64_t v_applied = applied_signal_.version();
    const std::uint64_t v_omega = omega_->changed().version();
    const std::uint64_t v_horizon = engine_->horizon_signal().version();
    const std::uint64_t v_recover = recovering_signal_.version();

    // Recovery hold: a rejoined replica that Ω immediately trusts must not
    // march proposals through slots it is about to install from a peer —
    // catch-up is cheaper than re-deciding, and next_slot_ floors at the
    // installed prefix once the hold lifts.
    if (omega_->trusts(self) && !recovering_) {
      // Hand-off / adoption: drive every open slot we have heard of but not
      // proposed ourselves (a dead or deposed leader's window). The
      // engine's protocol adopts any value a quorum already accepted;
      // otherwise our payload (or a no-op) fills the gap so the applied
      // prefix can advance. Slots we already drive self-heal (their
      // propose retries under our leadership), so they are skipped.
      const Slot horizon = engine_->slot_horizon();
      for (Slot s = applied_len_; s < horizon; ++s) {
        const std::size_t idx = s - applied_len_;
        if (idx < launches_.size() && launches_[idx].launched) continue;
        if (stash_.contains(s)) continue;  // decided, awaiting apply
        launch(s, take_pending_or_noop(), /*retry=*/true);
      }
      next_slot_ = std::max(next_slot_, horizon);
      // Fill the window with fresh assignments.
      while (next_slot_ < applied_len_ + config_.window && !pending_.empty()) {
        launch(next_slot_, take_pending_or_noop(), /*retry=*/true);
        ++next_slot_;
      }
    }

    sim::Select sel(*exec_);
    sel.on(pending_signal_, v_pending)
        .on(applied_signal_, v_applied)
        .on(omega_->changed(), v_omega)
        .on(engine_->horizon_signal(), v_horizon)
        .on(recovering_signal_, v_recover);
    (void)co_await sel;
  }
}

sim::Task<void> Log::pump_all() {
  while (!halted_) {
    // Wait for queued work, then for a window seat.
    sim::VersionSignal& signal =
        pending_.empty() ? pending_signal_ : applied_signal_;
    const std::uint64_t seen = signal.version();
    if (!pending_.empty() && next_slot_ < applied_len_ + config_.window) {
      // Candidate-per-slot model: no retry — consensus picking another
      // replica's candidate is the expected outcome, not a loss.
      launch(next_slot_, take_pending_or_noop(), /*retry=*/false);
      ++next_slot_;
      continue;
    }
    sim::Select sel(*exec_);
    sel.on(signal, seen);
    (void)co_await sel;
  }
}

sim::Task<void> Log::control_loop() {
  core::Transport* ctl = engine_->control_transport();
  while (true) {
    const core::TMsg m = co_await ctl->incoming().recv();
    if (halted_) co_return;
    // Strict total dispatch: the control channel carries peer bytes, so a
    // frame that is neither a well-formed request nor a well-formed
    // response is counted and dropped — nothing on this path throws.
    if (const auto req = decode_catchup_request(m.payload)) {
      if (config_.snapshot_interval > 0) serve_catchup(m.src, req->from);
    } else if (const auto resp = decode_catchup_response(m.payload)) {
      install_catchup(*resp, m.payload.size());
      response_signal_.bump();
    } else {
      ++catchup_rejected_;
    }
  }
}

void Log::serve_catchup(ProcessId dst, Slot from) {
  core::Transport* ctl = engine_->control_transport();
  CatchupResponse resp;
  if (from < snapshot_slot_ && !snapshot_.empty()) {
    resp.snap_slot = snapshot_slot_;
    resp.snapshot = snapshot_;
  }
  // retained_ covers exactly [snapshot_slot_, applied_len_).
  Slot s = std::max(from, snapshot_slot_);
  resp.first_slot = s;
  for (; s < applied_len_ && resp.payloads.size() < kMaxCatchupSlots; ++s) {
    const auto it = retained_.find(s);
    if (it == retained_.end()) break;
    resp.payloads.push_back(it->second);
  }
  // An empty response is still sent: "nothing for you" is how a recovering
  // peer learns it is level with us.
  ctl->send(dst, encode_catchup_response(resp));
}

sim::Task<Bytes> Log::fetch_range(Bytes request,
                                  std::function<bool(util::ByteView)> valid) {
  while (!halted_) {
    const std::uint64_t v_applied = applied_signal_.version();
    Bytes local = sm_->export_range(request);
    if (!local.empty() && valid(local)) co_return local;
    sim::Select sel(*exec_);
    sel.on(applied_signal_, v_applied);
    (void)co_await sel;
  }
  co_return Bytes{};
}

void Log::install_slot(Slot s, const Bytes& payload) {
  retire_launch();
  const std::vector<Bytes> commands = decode_batch(payload);
  for (const Bytes& c : commands) sm_->apply(s, c);
  if (config_.snapshot_interval > 0) retained_[s] = payload;
  advance();
}

void Log::install_catchup(const CatchupResponse& resp,
                          std::size_t wire_bytes) {
  catchup_bytes_ += wire_bytes;
  // A capped answer leaves more to fetch past its last slot.
  if (resp.payloads.size() >= kMaxCatchupSlots) answers_complete_ = false;
  bool progressed = false;
  if (resp.snap_slot > applied_len_) {
    if (!resp.snapshot.empty() && sm_->restore(resp.snapshot)) {
      for (Slot s = applied_len_; s < resp.snap_slot && !launches_.empty();
           ++s) {
        retire_launch();
      }
      applied_len_ = resp.snap_slot;
      // The installed snapshot becomes ours: we can serve it onward, and
      // our own cadence restarts from its slot.
      snapshot_ = resp.snapshot;
      snapshot_slot_ = resp.snap_slot;
      retained_.erase(retained_.begin(),
                      retained_.lower_bound(resp.snap_slot));
      ++snapshots_installed_;
      // The snapshot covers every slot below it: nothing there needs this
      // replica's consensus state again.
      engine_->retire_below(resp.snap_slot);
      progressed = true;
    } else {
      // Malformed or digest-mismatched snapshot: reject, state untouched.
      ++catchup_rejected_;
      answers_complete_ = false;
    }
  }
  for (std::size_t i = 0; i < resp.payloads.size(); ++i) {
    const Slot s = resp.first_slot + static_cast<Slot>(i);
    if (s < applied_len_) continue;  // already have it
    if (s > applied_len_) break;     // non-contiguous: useless from here on
    install_slot(s, resp.payloads[i]);
    progressed = true;
  }
  if (!progressed) return;
  if (!own_above_truncation_) truncated_upto_ = applied_len_;
  stash_.erase(stash_.begin(), stash_.lower_bound(applied_len_));
  drain_stash();  // decisions that arrived during recovery may now connect
  next_slot_ = std::max(next_slot_, applied_len_);
  applied_signal_.bump();
}

sim::Task<void> Log::catchup_driver() {
  core::Transport* ctl = engine_->control_transport();
  std::uint64_t silent_rounds = 0;
  while (true) {
    if (halted_) co_return;
    if (!recovering_) {
      // Gap watch: wait for a decided-but-unappliable suffix to appear,
      // then give normal delivery one grace period before re-requesting —
      // the missing DECIDEs may simply still be in flight.
      while (stash_.empty()) {
        const std::uint64_t v_stash = stash_signal_.version();
        if (!stash_.empty() || halted_) break;
        sim::Select sel(*exec_);
        sel.on(stash_signal_, v_stash);
        (void)co_await sel;
      }
      if (halted_) co_return;
      const Slot before = applied_len_;
      co_await exec_->sleep(kCatchupTimeout);
      if (halted_) co_return;
      if (stash_.empty() || applied_len_ > before) continue;
    }
    // One round: ask every peer, then wait for the first answer. Answers
    // install in control_loop as they land, this round's and later ones'.
    const std::uint64_t v_response = response_signal_.version();
    answers_complete_ = true;
    ctl->send_all(encode_catchup_request(CatchupRequest{applied_len_}),
                  /*include_self=*/false);
    sim::Select sel(*exec_);
    sel.on(response_signal_, v_response).until(exec_->now() + kCatchupTimeout);
    (void)co_await sel;
    if (halted_) co_return;
    if (!recovering_) continue;
    const bool answered = response_signal_.version() != v_response;
    silent_rounds = answered ? 0 : silent_rounds + 1;
    // Recovery ends once an answer brought everything up to the peer's
    // applied prefix and every decision heard meanwhile connected to it, or
    // when nobody serves at all (no snapshot-enabled peer alive) — holding
    // proposals forever would trade a slow catch-up for a livelock. Any
    // other answered round asks again at once.
    if ((answered && answers_complete_ && stash_.empty()) ||
        silent_rounds >= 4) {
      recovering_ = false;
      recovering_signal_.bump();
    }
  }
}

}  // namespace mnm::smr
