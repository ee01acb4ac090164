#include "core/add_sx_phiy_mp.h"

#include <algorithm>

#include "fd/query_oracles.h"
#include "fd/suspect_oracles.h"
#include "sim/delay_policy.h"
#include "sim/network.h"
#include "util/check.h"

namespace saf::core {

AdditionMpProcess::AdditionMpProcess(ProcessId id, int n, int t,
                                     const fd::SuspectOracle& sx,
                                     const fd::QueryOracle& phi,
                                     fd::EmulatedSuspectStore& out,
                                     Time hb_period, Time scan_period)
    : Process(id, n, t),
      sx_(sx),
      phi_(phi),
      out_(out),
      hb_period_(hb_period),
      scan_period_(scan_period),
      latest_(static_cast<std::size_t>(n), 0),
      latest_suspects_(static_cast<std::size_t>(n)),
      prev_(static_cast<std::size_t>(n), 0) {
  util::require(hb_period >= 1 && scan_period >= 1,
                "AdditionMpProcess: periods must be >= 1");
}

sim::ProtocolTask AdditionMpProcess::heartbeat_task() {
  while (true) {
    broadcast_msg(HeartbeatMsg{++counter_, sx_.suspected(id(), now())});
    co_await sleep_for(hb_period_);
  }
}

void AdditionMpProcess::on_message(const sim::Message& m) {
  const auto* hb = sim::msg_cast<HeartbeatMsg>(m);
  if (hb == nullptr) return;
  const auto s = static_cast<std::size_t>(hb->sender);
  // Channels are not FIFO: keep only the freshest heartbeat.
  if (hb->counter > latest_[s]) {
    latest_[s] = hb->counter;
    latest_suspects_[s] = hb->suspects;
  }
}

sim::ProtocolTask AdditionMpProcess::scanner_task() {
  while (true) {
    // Collect until the no-progress set is a region the φ oracle is
    // willing to declare crashed-or-too-small.
    ProcSet live;
    co_await until([this, &live] {
      live = ProcSet{};
      for (int j = 0; j < n(); ++j) {
        if (latest_[static_cast<std::size_t>(j)] >
            prev_[static_cast<std::size_t>(j)]) {
          live.insert(j);
        }
      }
      return phi_.query(id(), ProcSet::full(n()) - live, now());
    });
    prev_ = latest_;
    ProcSet suspected = ProcSet::full(n());
    for (ProcessId j : live) {
      suspected &= latest_suspects_[static_cast<std::size_t>(j)];
    }
    suspected = suspected - live;
    out_.set(id(), now(), suspected);
    ++scans_;
    co_await sleep_for(scan_period_);
  }
}

AdditionMpResult run_addition_mp(const AdditionMpConfig& cfg) {
  util::require(cfg.n >= 2 && cfg.n <= kMaxProcs, "addition_mp: n range");
  util::require(cfg.t >= 1 && cfg.t < cfg.n, "addition_mp: need 1 <= t < n");
  util::require(cfg.x >= 1 && cfg.x <= cfg.n, "addition_mp: x range");
  util::require(cfg.y >= 0 && cfg.y <= cfg.t, "addition_mp: y range");

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
  sp.stab_time = cfg.perpetual ? 0 : cfg.stab;
  sp.detect_delay = cfg.detect_delay;
  sp.noise_prob = cfg.sx_noise;
  sp.seed = util::derive_seed(cfg.seed, "sx");
  fd::LimitedScopeSuspectOracle sx(sim.pattern(), cfg.x, sp);

  fd::QueryOracleParams qp;
  qp.stab_time = cfg.perpetual ? 0 : cfg.stab;
  qp.detect_delay = cfg.detect_delay;
  qp.seed = util::derive_seed(cfg.seed, "phi");
  fd::PhiOracle phi(sim.pattern(), cfg.y, qp);

  fd::EmulatedSuspectStore out(cfg.n);
  std::vector<const AdditionMpProcess*> procs;
  for (ProcessId i = 0; i < cfg.n; ++i) {
    auto p = std::make_unique<AdditionMpProcess>(
        i, cfg.n, cfg.t, sx, phi, out, cfg.hb_period, cfg.scan_period);
    procs.push_back(p.get());
    sim.add_process(std::move(p));
  }
  sim.run();

  AdditionMpResult res;
  res.completeness =
      fd::check_strong_completeness(out.traces(), sim.pattern(), cfg.horizon);
  res.accuracy = fd::check_limited_scope_accuracy(
      out.traces(), sim.pattern(), cfg.n, cfg.horizon, cfg.perpetual);
  res.heartbeats = sim.network().sent_with_tag("heartbeat");
  res.min_scans = UINT64_MAX;
  for (const AdditionMpProcess* p : procs) {
    if (sim.pattern().crash_time(p->id()) == kNeverTime) {
      res.min_scans = std::min(res.min_scans, p->scans_completed());
    }
  }
  if (res.min_scans == UINT64_MAX) res.min_scans = 0;
  return res;
}

}  // namespace saf::core
