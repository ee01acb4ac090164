#include "core/consensus.h"

#include "sim/network.h"

#include <set>

#include "core/kset_agreement.h"
#include "fd/suspect_oracles.h"
#include "sim/delay_policy.h"
#include "util/check.h"

namespace saf::core {

namespace {
constexpr std::int64_t kBottom = INT64_MIN;
}

DiamondSConsensusProcess::DiamondSConsensusProcess(
    ProcessId id, int n, int t, const fd::SuspectOracle& suspects,
    std::int64_t proposal)
    : Process(id, n, t), suspects_(suspects), est_(proposal) {
  util::require(proposal != kBottom, "consensus: proposal must not be bottom");
}

sim::ProtocolTask DiamondSConsensusProcess::main() {
  while (!decided_) {
    ++round_;
    const int r = round_;
    const ProcessId coord = r % n();
    if (coord == id()) {
      broadcast_msg(CoordMsg{r, est_});
    }
    // Wait for the coordinator's value or a suspicion of the coordinator.
    co_await until([this, r, coord] {
      return decided_ || coord_value_.count(r) != 0 ||
             suspects_.suspected(id(), now()).contains(coord);
    });
    if (decided_) break;
    std::int64_t aux = kBottom;
    if (auto it = coord_value_.find(r); it != coord_value_.end()) {
      aux = it->second;
    }
    broadcast_msg(EchoMsg{r, aux});
    co_await until([this, r] {
      auto it = echoes_.find(r);
      return decided_ || (it != echoes_.end() &&
                          static_cast<int>(it->second.size()) >= n() - t());
    });
    if (decided_) break;
    bool saw_bottom = false;
    std::int64_t v = kBottom;
    for (std::int64_t a : echoes_[r]) {
      if (a == kBottom) {
        saw_bottom = true;
      } else {
        v = a;  // at most one non-bottom value exists per round
      }
    }
    if (v != kBottom) est_ = v;
    if (!saw_bottom) {
      rbroadcast_msg(ConsensusDecisionMsg{est_});
      co_await until([this] { return decided_; });
      break;
    }
  }
}

void DiamondSConsensusProcess::on_message(const sim::Message& m) {
  if (const auto* c = sim::msg_cast<CoordMsg>(m)) {
    if (c->sender == c->round % n()) {
      coord_value_.emplace(c->round, c->est);
    }
    return;
  }
  if (const auto* e = sim::msg_cast<EchoMsg>(m)) {
    echoes_[e->round].push_back(e->aux);
  }
}

void DiamondSConsensusProcess::on_rdeliver(const sim::Message& m) {
  const auto* d = sim::msg_cast<ConsensusDecisionMsg>(m);
  if (d == nullptr) return;
  if (!decided_) {
    decided_ = true;
    decision_ = d->value;
    decision_time_ = now();
    decision_round_ = round_;
  }
}

ConsensusRunResult run_diamond_s_consensus(const ConsensusRunConfig& cfg) {
  util::require(cfg.n >= 2 && cfg.n <= kMaxProcs, "consensus: n range");
  util::require(cfg.t >= 1 && 2 * cfg.t < cfg.n,
                "consensus: requires t < n/2");
  std::vector<std::int64_t> proposals = cfg.proposals;
  if (proposals.empty()) {
    for (int i = 0; i < cfg.n; ++i) proposals.push_back(100 + i);
  }
  util::require(static_cast<int>(proposals.size()) == cfg.n,
                "consensus: proposals size mismatch");

  sim::SimConfig sc;
  sc.seed = cfg.seed;
  sc.n = cfg.n;
  sc.t = cfg.t;
  sc.tick_period = cfg.tick_period;
  sc.horizon = cfg.horizon;
  std::unique_ptr<sim::DelayPolicy> delays;
  if (cfg.delay_min == cfg.delay_max) {
    delays = std::make_unique<sim::FixedDelay>(cfg.delay_min);
  } else {
    delays = std::make_unique<sim::UniformDelay>(cfg.delay_min, cfg.delay_max);
  }
  sim::Simulator sim(sc, cfg.crashes, std::move(delays));

  fd::SuspectOracleParams sp;
  sp.stab_time = cfg.fd_stab;
  sp.detect_delay = cfg.detect_delay;
  sp.noise_prob = cfg.noise;
  sp.seed = util::derive_seed(cfg.seed, "diamond_s");
  // ◇S is ◇S_n: full-scope accuracy.
  fd::LimitedScopeSuspectOracle ds(sim.pattern(), cfg.n, sp);

  std::vector<const DiamondSConsensusProcess*> procs;
  for (ProcessId i = 0; i < cfg.n; ++i) {
    auto p = std::make_unique<DiamondSConsensusProcess>(
        i, cfg.n, cfg.t, ds, proposals[static_cast<std::size_t>(i)]);
    procs.push_back(p.get());
    sim.add_process(std::move(p));
  }
  sim.run_until([&] {
    for (const auto* p : procs) {
      if (!sim.is_crashed(p->id()) && !p->decided()) return false;
    }
    return true;
  });

  ConsensusRunResult res;
  res.all_correct_decided = true;
  res.validity = true;
  std::set<std::int64_t> values;
  const std::set<std::int64_t> proposed(proposals.begin(), proposals.end());
  for (const auto* p : procs) {
    const bool correct = sim.pattern().crash_time(p->id()) == kNeverTime;
    if (p->decided()) {
      values.insert(p->decision());
      res.finish_time = std::max(res.finish_time, p->decision_time());
      res.max_round = std::max(res.max_round, p->decision_round());
      if (proposed.count(p->decision()) == 0) res.validity = false;
    } else if (correct) {
      res.all_correct_decided = false;
    }
  }
  res.agreement = values.size() <= 1;
  if (values.size() == 1) res.decided_value = *values.begin();
  res.total_messages = sim.network().total_sent();
  return res;
}

ConsensusRunResult run_omega_consensus(const ConsensusRunConfig& cfg) {
  KSetRunConfig kc;
  kc.n = cfg.n;
  kc.t = cfg.t;
  kc.k = 1;
  kc.z = 1;
  kc.seed = cfg.seed;
  kc.omega_stab = cfg.fd_stab;
  kc.horizon = cfg.horizon;
  kc.tick_period = cfg.tick_period;
  kc.delay_min = cfg.delay_min;
  kc.delay_max = cfg.delay_max;
  kc.proposals = cfg.proposals;
  kc.crashes = cfg.crashes;
  const KSetRunResult kr = run_kset_agreement(kc);

  ConsensusRunResult res;
  res.all_correct_decided = kr.all_correct_decided;
  res.agreement = kr.distinct_decided <= 1;
  res.validity = kr.validity;
  if (kr.distinct_decided == 1) {
    for (std::int64_t v : kr.decisions) {
      if (v != kNoValue) {
        res.decided_value = v;
        break;
      }
    }
  }
  res.finish_time = kr.finish_time;
  res.max_round = kr.max_round;
  res.total_messages = kr.total_messages;
  return res;
}

}  // namespace saf::core
