#include "core/kset_diamond_s.h"

#include <algorithm>
#include <set>

#include "fd/suspect_oracles.h"
#include "sim/delay_policy.h"
#include "sim/network.h"
#include "util/check.h"

namespace saf::core {

namespace {
constexpr std::int64_t kBottom = INT64_MIN;
}

DiamondSKSetProcess::DiamondSKSetProcess(ProcessId id, int n, int t, int k,
                                         const fd::SuspectOracle& suspects,
                                         std::int64_t proposal)
    : Process(id, n, t), k_(k), suspects_(suspects), est_(proposal) {
  util::require(k >= 1 && k <= n, "DiamondSKSet: need 1 <= k <= n");
  util::require(proposal != kBottom, "DiamondSKSet: bottom proposal");
}

ProcSet DiamondSKSetProcess::coordinators(int r) const {
  ProcSet c;
  const int base = ((r - 1) * k_) % n();
  for (int j = 0; j < k_; ++j) {
    c.insert((base + j) % n());
  }
  return c;
}

sim::ProtocolTask DiamondSKSetProcess::main() {
  while (!decided_) {
    ++round_;
    const int r = round_;
    const ProcSet coords = coordinators(r);
    if (coords.contains(id())) {
      broadcast_msg(KCoordEstMsg{r, est_});
    }
    // Phase 1: a coordinator estimate, or the whole window suspected.
    co_await until([this, r, coords] {
      if (decided_) return true;
      auto it = coord_ests_.find(r);
      if (it != coord_ests_.end() && !it->second.empty()) return true;
      return coords.subset_of(suspects_.suspected(id(), now()));
    });
    if (decided_) break;
    std::int64_t aux = kBottom;
    if (auto it = coord_ests_.find(r);
        it != coord_ests_.end() && !it->second.empty()) {
      aux = it->second.front();
    }
    // Phase 2: commit / adopt (as Fig 3).
    broadcast_msg(KEchoMsg{r, aux});
    co_await until([this, r] {
      auto it = echoes_.find(r);
      return decided_ || (it != echoes_.end() &&
                          static_cast<int>(it->second.size()) >= n() - t());
    });
    if (decided_) break;
    bool saw_bottom = false;
    std::int64_t adopt = kBottom;
    for (std::int64_t a : echoes_[r]) {
      if (a == kBottom) {
        saw_bottom = true;
      } else {
        adopt = a;
      }
    }
    if (adopt != kBottom) est_ = adopt;
    if (!saw_bottom) {
      rbroadcast_msg(KDecisionMsg{est_});
      co_await until([this] { return decided_; });
      break;
    }
  }
}

void DiamondSKSetProcess::on_message(const sim::Message& m) {
  if (const auto* ce = sim::msg_cast<KCoordEstMsg>(m)) {
    if (coordinators(ce->round).contains(ce->sender)) {
      coord_ests_[ce->round].push_back(ce->est);
    }
    return;
  }
  if (const auto* e = sim::msg_cast<KEchoMsg>(m)) {
    echoes_[e->round].push_back(e->aux);
  }
}

void DiamondSKSetProcess::on_rdeliver(const sim::Message& m) {
  const auto* d = sim::msg_cast<KDecisionMsg>(m);
  if (d == nullptr) return;
  if (!decided_) {
    decided_ = true;
    decision_ = d->value;
    decision_time_ = now();
    decision_round_ = round_;
  }
}

DiamondSKSetResult run_diamond_s_kset(const DiamondSKSetConfig& cfg) {
  util::require(cfg.n >= 2 && cfg.n <= kMaxProcs, "ds_kset: n range");
  util::require(cfg.t >= 1 && 2 * cfg.t < cfg.n, "ds_kset: requires t < n/2");
  util::require(cfg.k >= 1 && cfg.k <= cfg.n, "ds_kset: k range");
  std::vector<std::int64_t> proposals = cfg.proposals;
  if (proposals.empty()) {
    for (int i = 0; i < cfg.n; ++i) proposals.push_back(100 + i);
  }
  util::require(static_cast<int>(proposals.size()) == cfg.n,
                "ds_kset: proposals size mismatch");

  sim::SimConfig sc;
  sc.seed = cfg.seed;
  sc.n = cfg.n;
  sc.t = cfg.t;
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
  fd::LimitedScopeSuspectOracle ds(sim.pattern(), cfg.n, sp);  // ◇S = ◇S_n

  std::vector<const DiamondSKSetProcess*> procs;
  for (ProcessId i = 0; i < cfg.n; ++i) {
    auto p = std::make_unique<DiamondSKSetProcess>(
        i, cfg.n, cfg.t, cfg.k, ds, proposals[static_cast<std::size_t>(i)]);
    procs.push_back(p.get());
    sim.add_process(std::move(p));
  }
  sim.run_until([&] {
    return std::all_of(procs.begin(), procs.end(), [&](const auto* p) {
      return sim.is_crashed(p->id()) || p->decided();
    });
  });

  DiamondSKSetResult res;
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
  res.distinct_decided = static_cast<int>(values.size());
  res.total_messages = sim.network().total_sent();
  return res;
}

}  // namespace saf::core
