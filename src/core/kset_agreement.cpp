#include "core/kset_agreement.h"

#include "sim/network.h"

#include <algorithm>
#include <set>

#include "fault/harness.h"
#include "fd/faulty.h"
#include "fd/omega_oracle.h"
#include "fd/traced.h"
#include "sim/delay_policy.h"
#include "util/check.h"

namespace saf::core {

namespace {
/// Bounded corruption of a payload int: XOR a nonzero low-bit pattern,
/// so the value changes but stays a valid (non-overflowing) int64. A
/// bottom aux becomes a non-bottom lie, which is the interesting case.
std::int64_t perturb(std::int64_t v, util::Rng& rng) {
  return v ^ rng.uniform(1, 16);
}
}  // namespace

const sim::Message* Phase1Msg::corrupted(util::Arena& arena,
                                         util::Rng& rng) const {
  auto* bad = arena.create<Phase1Msg>(*this);
  bad->est = perturb(est, rng);
  return bad;
}

const sim::Message* Phase2Msg::corrupted(util::Arena& arena,
                                         util::Rng& rng) const {
  auto* bad = arena.create<Phase2Msg>(*this);
  bad->aux = perturb(aux, rng);
  return bad;
}

const sim::Message* DecisionMsg::corrupted(util::Arena& arena,
                                           util::Rng& rng) const {
  auto* bad = arena.create<DecisionMsg>(*this);
  bad->value = perturb(value, rng);
  return bad;
}

KSetCore::KSetCore(sim::Process& host, const fd::LeaderOracle& omega,
                   std::int64_t proposal, int instance)
    : host_(host), omega_(omega), est_(proposal), instance_(instance) {
  util::require(proposal != kNoValue, "KSetCore: proposal must not be bottom");
}

int KSetCore::intern(const ProcSet& leaders) {
  const auto it = std::find(leader_sets_.begin(), leader_sets_.end(), leaders);
  if (it != leader_sets_.end()) {
    return static_cast<int>(it - leader_sets_.begin());
  }
  leader_sets_.push_back(leaders);
  return static_cast<int>(leader_sets_.size()) - 1;
}

int KSetCore::count_phase1(int r) const {
  auto it = phase1_.find(r);
  return it == phase1_.end() ? 0 : static_cast<int>(it->second.size());
}

bool KSetCore::phase1_from(int r, ProcSet l) const {
  auto it = phase1_senders_.find(r);
  return it != phase1_senders_.end() && it->second.intersects(l);
}

std::optional<ProcSet> KSetCore::majority_leader_set(int r) const {
  auto it = phase1_.find(r);
  if (it == phase1_.end()) return std::nullopt;
  std::vector<int> tally(leader_sets_.size(), 0);
  for (const Phase1Record& rec : it->second) {
    ++tally[static_cast<std::size_t>(rec.leaders)];
  }
  // Distinct senders give at most one set above n/2; duplicate receipts
  // can give more, and then the smallest set (ProcSet order) wins, so
  // the choice never depends on which set was seen first.
  std::optional<ProcSet> best;
  for (std::size_t i = 0; i < tally.size(); ++i) {
    if (2 * tally[i] > host_.n() && (!best || leader_sets_[i] < *best)) {
      best = leader_sets_[i];
    }
  }
  return best;
}

std::optional<std::int64_t> KSetCore::estimate_from(int r, ProcSet l) const {
  auto it = phase1_.find(r);
  if (it == phase1_.end()) return std::nullopt;
  for (const Phase1Record& rec : it->second) {
    if (l.contains(rec.sender)) return rec.est;
  }
  return std::nullopt;
}

sim::ProtocolTask KSetCore::main() {
  const int n = host_.n();
  const int t = host_.t();
  while (!decided_) {
    ++round_;
    const int r = round_;
    // ----- Phase 1 (lines 3-8): anchor at most |L| estimates.
    const ProcSet leaders = omega_.trusted(host_.id(), host_.now());
    cur_leaders_ = leaders;
    phase_ = 1;
    host_.broadcast_msg(Phase1Msg{r, leaders, est_, instance_});
    co_await host_.until([this, r, leaders, n, t] {
      if (decided_) return true;
      if (count_phase1(r) < n - t) return false;
      if (phase1_from(r, leaders)) return true;
      return omega_.trusted(host_.id(), host_.now()) != leaders;
    });
    if (decided_) break;
    std::int64_t aux = kNoValue;
    if (auto maj = majority_leader_set(r)) {
      if (auto v = estimate_from(r, *maj)) aux = *v;
    }
    // ----- Phase 2 (lines 9-14): commit / adopt.
    phase_ = 2;
    host_.broadcast_msg(Phase2Msg{r, aux, instance_});
    co_await host_.until([this, r, n, t] {
      auto it = phase2_.find(r);
      return decided_ ||
             (it != phase2_.end() &&
              static_cast<int>(it->second.size()) >= n - t);
    });
    if (decided_) break;
    bool saw_bottom = false;
    std::int64_t adopt = kNoValue;
    for (const Phase2Record& rec : phase2_[r]) {
      if (rec.aux == kNoValue) {
        saw_bottom = true;
      } else {
        adopt = rec.aux;
      }
    }
    if (adopt != kNoValue) est_ = adopt;
    if (!saw_bottom) {
      // Decide: task T2 completes the decision on R-delivery.
      phase_ = 3;
      host_.rbroadcast_msg(DecisionMsg{est_, instance_});
      co_await host_.until([this] { return decided_; });
      break;
    }
    phase_ = 0;
  }
  main_finished_ = true;
}

void KSetCore::state_digest(sim::StateDigest& d) const {
  d.mix_i64(est_);
  d.mix_i64(instance_);
  d.mix_i64(round_);
  d.mix_i64(phase_);
  d.mix_set(cur_leaders_);
  d.mix_bool(decided_);
  d.mix_i64(decision_);
  d.mix_i64(decision_time_);
  d.mix_i64(decision_round_);
  // Each record folds as the message it came from: sender, then the
  // message's own digest_into().
  const auto mix_rounds = [&d](const auto& by_round, const auto& fold) {
    d.mix_u64(by_round.size());
    for (const auto& [r, records] : by_round) {
      d.mix_i64(r);
      d.mix_u64(records.size());
      for (const auto& rec : records) {
        d.mix_id(rec.sender);
        fold(r, rec);
      }
    }
  };
  mix_rounds(phase1_, [this, &d](int r, const Phase1Record& rec) {
    Phase1Msg{r, leader_sets_[static_cast<std::size_t>(rec.leaders)], rec.est,
              instance_}
        .digest_into(d);
  });
  mix_rounds(phase2_, [this, &d](int r, const Phase2Record& rec) {
    Phase2Msg{r, rec.aux, instance_}.digest_into(d);
  });
}

bool KSetCore::on_message(const sim::Message& m) {
  if (const auto* p1 = dynamic_cast<const Phase1Msg*>(&m)) {
    if (p1->instance != instance_) return false;
    // A wire sender outside the run names no process; drop it rather
    // than index the sender set with it.
    if (p1->sender < 0 || p1->sender >= host_.n()) return true;
    phase1_[p1->round].push_back({p1->sender, intern(p1->leaders), p1->est});
    phase1_senders_[p1->round].insert(p1->sender);
    return true;
  }
  if (const auto* p2 = dynamic_cast<const Phase2Msg*>(&m)) {
    if (p2->instance != instance_) return false;
    phase2_[p2->round].push_back({p2->sender, p2->aux});
    return true;
  }
  return false;
}

bool KSetCore::on_rdeliver(const sim::Message& m) {
  const auto* d = dynamic_cast<const DecisionMsg*>(&m);
  if (d == nullptr || d->instance != instance_) return false;
  if (!decided_) {
    decided_ = true;
    decision_ = d->value;
    decision_time_ = host_.now();
    decision_round_ = round_;
    host_.tracer().protocol(trace::Kind::kDecide, host_.now(), host_.id(),
                            d->value, "kset");
  }
  return true;
}

KSetRunResult run_kset_agreement(const KSetRunConfig& cfg) {
  util::require(cfg.n >= 2 && cfg.n <= kMaxProcs, "run_kset: n out of range");
  util::require(cfg.t >= 1 && cfg.t < cfg.n, "run_kset: need 1 <= t < n");
  util::require(cfg.z >= 1 && cfg.z <= cfg.n, "run_kset: need 1 <= z <= n");
  std::vector<std::int64_t> proposals = cfg.proposals;
  if (proposals.empty()) {
    for (int i = 0; i < cfg.n; ++i) proposals.push_back(100 + i);
  }
  util::require(static_cast<int>(proposals.size()) == cfg.n,
                "run_kset: proposals size mismatch");

  sim::SimConfig sc;
  sc.seed = cfg.seed;
  sc.n = cfg.n;
  sc.t = cfg.t;
  sc.tick_period = cfg.tick_period;
  sc.horizon = cfg.horizon;
  sc.max_events = cfg.max_events;
  sc.wall_budget_ms = cfg.wall_budget_ms;
  sc.batched_broadcasts = cfg.batched_broadcasts;
  std::unique_ptr<sim::DelayPolicy> delays;
  if (cfg.delay_factory) {
    delays = cfg.delay_factory(cfg.seed);
  } else if (cfg.delay_min == cfg.delay_max) {
    delays = std::make_unique<sim::FixedDelay>(cfg.delay_min);
  } else {
    delays = std::make_unique<sim::UniformDelay>(cfg.delay_min, cfg.delay_max);
  }
  sim::Simulator sim(sc, cfg.crashes, std::move(delays));
  if (cfg.delivery_observer) sim.set_delivery_observer(cfg.delivery_observer);
  if (cfg.trace_sink != nullptr || cfg.metrics != nullptr) {
    sim.set_trace(cfg.trace_sink, cfg.metrics, cfg.trace_mask);
  }
  fault::RunFaults faults(sim, cfg.faults);

  fd::OmegaOracleParams op;
  op.stab_time = cfg.perfect_oracle ? 0 : cfg.omega_stab;
  op.anarchy_before_stab = !cfg.perfect_oracle;
  op.seed = util::derive_seed(cfg.seed, "omega");
  op.forced_final_set = cfg.forced_final_set;
  fd::OmegaZOracle omega(sim.pattern(), cfg.z, op);

  // Oracle stack: base Ω_z, optionally made spec-violating (fault
  // layer), optionally wrapped (mutation tests), optionally traced.
  // Processes see only the top; the monitors sample `monitored` — the
  // stack below the traced adapter, i.e. exactly the values the
  // protocol saw, without polluting fd_query metrics post-run.
  const fd::LeaderOracle* oracle = &omega;
  std::unique_ptr<fd::FlappingLeaderOracle> flapping;
  if (faults.enabled() &&
      cfg.faults->oracle.kind == fault::OracleFaultKind::kFlappingLeader) {
    flapping = std::make_unique<fd::FlappingLeaderOracle>(
        *oracle, cfg.n,
        fd::FaultyOracleParams{cfg.faults->oracle.from,
                               cfg.faults->oracle.period});
    oracle = flapping.get();
  }
  std::unique_ptr<fd::LeaderOracle> wrapped;
  if (cfg.oracle_wrapper) {
    wrapped = cfg.oracle_wrapper(*oracle);
    util::require(wrapped != nullptr, "run_kset: oracle_wrapper returned null");
    oracle = wrapped.get();
  }
  const fd::LeaderOracle* monitored = oracle;
  std::unique_ptr<fd::TracedLeaderOracle> traced;
  if (sim.tracer().active()) {
    traced = std::make_unique<fd::TracedLeaderOracle>(*oracle, sim.tracer(),
                                                      "omega");
    oracle = traced.get();
  }

  std::vector<const KSetProcess*> procs;
  for (ProcessId i = 0; i < cfg.n; ++i) {
    auto p = std::make_unique<KSetProcess>(i, cfg.n, cfg.t, *oracle,
                                           proposals[static_cast<std::size_t>(i)]);
    if (faults.lossy()) p->enable_rb_acks();
    procs.push_back(p.get());
    sim.add_process(std::move(p));
  }
  if (cfg.on_simulator) cfg.on_simulator(sim);

  sim.run_until([&] {
    for (const KSetProcess* p : procs) {
      if (!sim.is_crashed(p->id()) && !p->core().decided()) return false;
    }
    return true;
  });

  KSetRunResult res;
  res.decisions.assign(static_cast<std::size_t>(cfg.n), kNoValue);
  res.decision_times.assign(static_cast<std::size_t>(cfg.n), kNeverTime);
  res.decision_rounds.assign(static_cast<std::size_t>(cfg.n), 0);
  std::set<std::int64_t> values;
  res.all_correct_decided = true;
  res.validity = true;
  const std::set<std::int64_t> proposed(proposals.begin(), proposals.end());
  for (const KSetProcess* p : procs) {
    const auto i = static_cast<std::size_t>(p->id());
    const bool correct = sim.pattern().crash_time(p->id()) == kNeverTime;
    if (p->core().decided()) {
      res.decisions[i] = p->core().decision();
      res.decision_times[i] = p->core().decision_time();
      res.decision_rounds[i] = p->core().decision_round();
      res.max_round = std::max(res.max_round, p->core().decision_round());
      res.finish_time = std::max(res.finish_time, p->core().decision_time());
      values.insert(p->core().decision());
      if (proposed.count(p->core().decision()) == 0) res.validity = false;
    } else if (correct) {
      res.all_correct_decided = false;
    }
  }
  res.distinct_decided = static_cast<int>(values.size());
  res.agreement_k = res.distinct_decided <= cfg.k;
  res.total_messages = sim.network().total_sent();
  res.events_processed = sim.events_processed();
  res.timed_out = sim.timed_out();
  if (faults.enabled()) {
    faults.base_assumptions(sim.pattern(), res.compliance);
    fault::MonitorWindow w;
    w.deadline = (cfg.perfect_oracle ? 0 : cfg.omega_stab) + cfg.monitor_slack;
    w.end = sim.now();
    w.step = cfg.tick_period;
    fault::monitor_leader_contract(*monitored, sim.pattern(), cfg.z, w,
                                   res.compliance);
  }
  if (cfg.metrics != nullptr) {
    auto& dt = cfg.metrics->histogram("kset.decision_time");
    auto& dr = cfg.metrics->histogram("kset.decision_round");
    for (int i = 0; i < cfg.n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (res.decisions[idx] == kNoValue) continue;
      dt.record(res.decision_times[idx]);
      dr.record(res.decision_rounds[idx]);
    }
    cfg.metrics->counter("kset.distinct_decisions")
        .add(static_cast<std::uint64_t>(res.distinct_decided));
  }
  return res;
}

}  // namespace saf::core
