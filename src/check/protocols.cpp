#include "check/protocols.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/phibar_to_omega.h"
#include "fault/harness.h"
#include "fault/monitor.h"
#include "fd/faulty.h"
#include "fd/oracle.h"
#include "fd/query_oracles.h"
#include "sim/network.h"
#include "sim/process.h"
#include "util/check.h"
#include "util/rng.h"

namespace saf::check {

namespace {

// --- delivery digest ---------------------------------------------------

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// --- shared plumbing ---------------------------------------------------

/// Combines the mandatory digest with the caller's optional observer.
sim::DeliveryObserver tee(DeliveryDigest& digest,
                          const sim::DeliveryObserver& extra) {
  return [&digest, extra](Time at, ProcessId to, const sim::Message& m) {
    digest.observe(at, to, m);
    if (extra) extra(at, to, m);
  };
}

std::unique_ptr<sim::DelayPolicy> resolve_policy(const ScheduleCase& c,
                                                 const RunContext& ctx) {
  return ctx.delay_factory ? ctx.delay_factory()
                           : make_delay_policy(c.adversary);
}

/// Folds the watchdog + compliance outcome of a harness run into the
/// outcome's verdict fields. `out.ok` / `out.violations` must already be
/// set; under a fault spec only in-model violations keep ok == false —
/// explained (out-of-model) violations are witnesses, not failures.
void finish_verdict(RunOutcome& out, const RunContext& ctx, bool timed_out,
                    const fault::ComplianceReport& report) {
  out.timed_out = timed_out;
  out.verdict = fault::classify(timed_out, !out.violations.empty(), report);
  if (const fault::BrokenAssumption* f = report.first()) {
    out.first_broken = f->assumption;
    out.first_broken_at = f->at;
  }
  if (ctx.faults != nullptr && ctx.faults->enabled()) {
    out.ok = !fault::verdict_is_failure(out.verdict);
  }
}

// --- built-in protocol: k-set agreement (Fig 3) ------------------------

/// The PR-1 injected-bug wrapper, now a first-class spec knob: an Ω
/// oracle widened by one member — the classic bug of a transformation
/// forgetting to trim its candidate set. The reduced DFS must keep
/// catching the agreement violations it induces
/// (tests/test_dfs_reduction.cpp).
class WidenedLeaderOracle final : public fd::LeaderOracle {
 public:
  explicit WidenedLeaderOracle(const fd::LeaderOracle& inner)
      : inner_(inner) {}
  ProcSet trusted(ProcessId i, Time now) const override {
    ProcSet s = inner_.trusted(i, now);
    for (ProcessId extra = 0;; ++extra) {
      if (!s.contains(extra)) {
        s.insert(extra);
        return s;
      }
    }
  }

 private:
  const fd::LeaderOracle& inner_;
};

RunOutcome run_kset_case(const KSetProtocolSpec& spec, const ScheduleCase& c,
                         const RunContext& ctx) {
  core::KSetRunConfig cfg;
  cfg.n = spec.n;
  cfg.t = spec.t;
  cfg.k = spec.k;
  cfg.z = spec.k;
  cfg.seed = c.seed;
  cfg.omega_stab = 200;
  cfg.perfect_oracle = spec.perfect_oracle;
  cfg.forced_final_set = spec.forced_final_set;
  cfg.horizon = spec.horizon;
  cfg.crashes = c.crashes;
  if (spec.equal_proposals) {
    cfg.proposals.assign(static_cast<std::size_t>(spec.n), 100);
  }
  if (spec.widen_oracle) {
    cfg.oracle_wrapper = [](const fd::LeaderOracle& base) {
      return std::make_unique<WidenedLeaderOracle>(base);
    };
  }
  DeliveryDigest digest;
  cfg.delivery_observer = tee(digest, ctx.observer);
  cfg.on_simulator = ctx.on_simulator;
  cfg.trace_sink = ctx.trace_sink;
  cfg.metrics = ctx.metrics;
  cfg.trace_mask = ctx.trace_mask;
  cfg.faults = ctx.faults;
  cfg.max_events = ctx.max_events;
  cfg.wall_budget_ms = ctx.wall_budget_ms;
  auto policy = resolve_policy(c, ctx);
  cfg.delay_factory = [&policy](std::uint64_t) { return std::move(policy); };
  const core::KSetRunResult res = core::run_kset_agreement(cfg);

  RunOutcome out;
  out.violations = core::kset_invariants(cfg, res);
  out.ok = out.violations.empty();
  out.events_processed = res.events_processed;
  out.total_messages = res.total_messages;
  out.digest = digest.value();
  out.decisions = res.decisions;
  finish_verdict(out, ctx, res.timed_out, res.compliance);
  return out;
}

// --- built-in protocol: two wheels (§4) --------------------------------

RunOutcome run_two_wheels_case(const TwoWheelsProtocolSpec& spec,
                               const ScheduleCase& c, const RunContext& ctx) {
  core::TwoWheelsConfig cfg;
  cfg.n = spec.n;
  cfg.t = spec.t;
  cfg.x = spec.x;
  cfg.y = spec.y;  // z = t + 2 - x - y
  cfg.seed = c.seed;
  cfg.horizon = spec.horizon;
  cfg.sx_stab = spec.sx_stab;
  cfg.phi_stab = spec.phi_stab;
  cfg.inquiry_period = spec.inquiry_period;
  cfg.crashes = c.crashes;
  DeliveryDigest digest;
  cfg.delivery_observer = tee(digest, ctx.observer);
  cfg.on_simulator = ctx.on_simulator;
  cfg.trace_sink = ctx.trace_sink;
  cfg.metrics = ctx.metrics;
  cfg.trace_mask = ctx.trace_mask;
  cfg.faults = ctx.faults;
  cfg.max_events = ctx.max_events;
  cfg.wall_budget_ms = ctx.wall_budget_ms;
  auto policy = resolve_policy(c, ctx);
  cfg.delay_factory = [&policy](std::uint64_t) { return std::move(policy); };
  const core::TwoWheelsResult res = core::run_two_wheels(cfg);

  RunOutcome out;
  out.violations = core::two_wheels_invariants(cfg, res);
  out.ok = out.violations.empty();
  out.events_processed = res.events_processed;
  out.total_messages = res.total_messages;
  out.digest = digest.value();
  for (const auto& tr : res.trusted_history) {
    out.decisions.push_back(static_cast<std::int64_t>(tr.final().mask()));
  }
  for (const auto& tr : res.repr_history) {
    out.decisions.push_back(tr.final());
  }
  finish_verdict(out, ctx, res.timed_out, res.compliance);
  return out;
}

// --- built-in protocol: phibar -> omega (Appendix A) -------------------

struct BeatMsg final : sim::MessageOf<BeatMsg> {
  std::string_view tag() const override { return "beat"; }
};

/// Keeps the network busy so crash plans (send triggers) and delay
/// adversaries have traffic to act on; the adaptor itself is message-
/// free.
class HeartbeatProcess final : public sim::Process {
 public:
  HeartbeatProcess(ProcessId id, int n, int t, Time period)
      : Process(id, n, t), period_(period) {}

  sim::ProtocolTask run() override {
    while (true) {
      broadcast_interned<BeatMsg>();  // fixed vocabulary: one arena object
      co_await sleep_for(period_);
    }
  }

 private:
  Time period_;
};

RunOutcome run_phibar_case(const ScheduleCase& c, const RunContext& ctx) {
  constexpr int n = 8, t = 3, y = 2, z = 2;  // y + z >= t + 1
  constexpr Time horizon = 20'000;
  sim::SimConfig sc;
  sc.seed = c.seed;
  sc.n = n;
  sc.t = t;
  sc.horizon = horizon;
  sc.max_events = ctx.max_events;
  sc.wall_budget_ms = ctx.wall_budget_ms;
  sim::Simulator sim(sc, c.crashes, resolve_policy(c, ctx));
  DeliveryDigest digest;
  sim.set_delivery_observer(tee(digest, ctx.observer));
  if (ctx.trace_sink != nullptr || ctx.metrics != nullptr) {
    sim.set_trace(ctx.trace_sink, ctx.metrics, ctx.trace_mask);
  }
  fault::RunFaults faults(sim, ctx.faults);
  for (ProcessId i = 0; i < n; ++i) {
    sim.add_process(std::make_unique<HeartbeatProcess>(i, n, t, 250));
  }
  if (ctx.on_simulator) ctx.on_simulator(sim);
  fd::QueryOracleParams qp;
  qp.stab_time = 200;
  qp.detect_delay = 15;
  qp.seed = util::derive_seed(c.seed, "phi");
  fd::PhiOracle phi(sim.pattern(), y, qp);
  // Fault layer: a lying φ_y slots in under the φ̄ containment wrapper,
  // so the adaptor consumes (and the monitors judge) the faulty answers.
  const fd::QueryOracle* phi_in = &phi;
  std::unique_ptr<fd::LyingQueryOracle> lying;
  if (faults.enabled() &&
      ctx.faults->oracle.kind == fault::OracleFaultKind::kLyingQuery) {
    lying = std::make_unique<fd::LyingQueryOracle>(
        *phi_in, t, y,
        fd::FaultyOracleParams{ctx.faults->oracle.from,
                               ctx.faults->oracle.period});
    phi_in = lying.get();
  }
  fd::PhiBarOracle phibar(*phi_in);
  core::PhiBarToOmega omega(phibar, n, t, y, z);
  sim.run();
  // The adaptor is message-free; trace its final Ω outputs explicitly so
  // a golden trace pins the constructed detector, not just the schedule.
  if (sim.tracer().active()) {
    for (ProcessId i = 0; i < n; ++i) {
      sim.tracer().protocol(
          trace::Kind::kNote, horizon, i,
          static_cast<std::int64_t>(omega.trusted(i, horizon).mask()),
          "phibar_omega");
    }
  }

  RunOutcome out;
  out.violations = core::phibar_invariants(
      *phi_in, omega, sim.pattern(), y, z, horizon, /*step=*/100,
      util::derive_seed(c.seed, "phibar_check"));
  out.ok = out.violations.empty();
  out.events_processed = sim.events_processed();
  out.total_messages = sim.network().total_sent();
  out.digest = digest.value();
  for (ProcessId i = 0; i < n; ++i) {
    out.decisions.push_back(
        static_cast<std::int64_t>(omega.trusted(i, horizon).mask()));
  }
  fault::ComplianceReport report;
  if (faults.enabled()) {
    faults.base_assumptions(sim.pattern(), report);
    fault::MonitorWindow w;
    w.deadline = qp.stab_time + 100;
    w.end = sim.now();
    w.step = 100;
    fault::monitor_query_contract(*phi_in, sim.pattern(), y, w, report);
  }
  finish_verdict(out, ctx, sim.timed_out(), report);
  return out;
}

// --- symmetry signatures -----------------------------------------------

/// One word per process folding everything that distinguishes it under
/// a pinned perfect oracle: its proposal, its forced-set membership and
/// its crash-plan entries. The DFS overrides the delay adversary, so
/// the case's adversary spec is deliberately excluded.
std::vector<std::uint64_t> kset_sym_signatures(const KSetProtocolSpec& spec,
                                               const ScheduleCase& c) {
  std::vector<std::uint64_t> sig(static_cast<std::size_t>(spec.n));
  for (int i = 0; i < spec.n; ++i) {
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= kFnvPrime;
      }
    };
    mix(static_cast<std::uint64_t>(
        spec.equal_proposals ? 100 : 100 + i));
    mix(spec.forced_final_set->contains(i) ? 1 : 0);
    for (const sim::CrashEntry& e : c.crashes.entries()) {
      if (e.pid != i) continue;
      if (e.send_trigger) {
        mix(0x5354ull);  // "ST"
        mix(*e.send_trigger);
      } else {
        mix(0x4154ull);  // "AT"
        mix(static_cast<std::uint64_t>(e.at_time));
      }
    }
    sig[static_cast<std::size_t>(i)] = h;
  }
  return sig;
}

// --- registry ----------------------------------------------------------

std::vector<Protocol>& registry() {
  static std::vector<Protocol> protocols = [] {
    std::vector<Protocol> p;
    KSetProtocolSpec kset;
    kset.name = "kset";
    kset.n = 7;
    kset.t = 3;
    kset.k = 2;
    kset.horizon = 60'000;
    p.push_back(make_kset_protocol(kset));
    TwoWheelsProtocolSpec tw;
    tw.name = "two-wheels";
    tw.n = 7;
    tw.t = 3;
    tw.x = 2;
    tw.y = 1;  // z = t + 2 - x - y = 2
    tw.horizon = 30'000;
    tw.sx_stab = 300;
    tw.phi_stab = 300;
    p.push_back(make_two_wheels_protocol(tw));
    p.push_back({"phibar", 8, 3, 20'000, run_phibar_case, nullptr});
    // Consensus-sized instance for the bounded-DFS interleaving mode
    // (small enough that the choice tree is exhaustible).
    KSetProtocolSpec small;
    small.name = "kset-small";
    p.push_back(make_kset_protocol(small));
    // Symmetric consensus instance for the DFS symmetry reduction:
    // equal proposals and a pinned perfect oracle make every
    // relabeling of {1, 2, 3} a run symmetry (S_3, group order 6).
    KSetProtocolSpec sym;
    sym.name = "kset-sym";
    sym.equal_proposals = true;
    sym.perfect_oracle = true;
    sym.forced_final_set = ProcSet{0};
    p.push_back(make_kset_protocol(sym));
    // Minimal two-wheels instance sized for dispatch-order DFS.
    TwoWheelsProtocolSpec tws;
    tws.name = "two-wheels-small";
    p.push_back(make_two_wheels_protocol(tws));
    return p;
  }();
  return protocols;
}

}  // namespace

Protocol make_kset_protocol(const KSetProtocolSpec& spec) {
  util::require(!spec.name.empty(), "make_kset_protocol: need a name");
  Protocol p;
  p.name = spec.name;
  p.n = spec.n;
  p.t = spec.t;
  p.horizon = spec.horizon;
  p.run = [spec](const ScheduleCase& c, const RunContext& ctx) {
    return run_kset_case(spec, c, ctx);
  };
  // Only a pinned constant oracle makes relabelings true symmetries:
  // a stabilizing oracle's pre-stabilization output depends on raw ids.
  if (spec.perfect_oracle && spec.forced_final_set.has_value()) {
    p.sym_signatures = [spec](const ScheduleCase& c) {
      return kset_sym_signatures(spec, c);
    };
  }
  return p;
}

Protocol make_two_wheels_protocol(const TwoWheelsProtocolSpec& spec) {
  util::require(!spec.name.empty(), "make_two_wheels_protocol: need a name");
  Protocol p;
  p.name = spec.name;
  p.n = spec.n;
  p.t = spec.t;
  p.horizon = spec.horizon;
  p.run = [spec](const ScheduleCase& c, const RunContext& ctx) {
    return run_two_wheels_case(spec, c, ctx);
  };
  // No sym_signatures: the wheels' ring scans order positions by raw
  // process id, so relabelings are not run symmetries (identity group).
  return p;
}

void DeliveryDigest::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= kFnvPrime;
  }
}

void DeliveryDigest::observe(Time at, ProcessId to, const sim::Message& m) {
  mix(static_cast<std::uint64_t>(at));
  mix(static_cast<std::uint64_t>(to));
  for (const char ch : m.tag()) {
    h_ ^= static_cast<unsigned char>(ch);
    h_ *= kFnvPrime;
  }
  ++count_;
}

const Protocol* find_protocol(std::string_view name) {
  for (const Protocol& p : registry()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::vector<std::string> protocol_names() {
  std::vector<std::string> names;
  for (const Protocol& p : registry()) names.push_back(p.name);
  return names;
}

void register_protocol(Protocol p) {
  util::require(!p.name.empty() && p.run != nullptr,
                "register_protocol: need a name and a run function");
  for (Protocol& existing : registry()) {
    if (existing.name == p.name) {
      existing = std::move(p);
      return;
    }
  }
  registry().push_back(std::move(p));
}

ScheduleCase generate_case(const Protocol& p, std::uint64_t seed) {
  ScheduleCase c;
  c.seed = seed;
  util::Rng rng(util::derive_seed(seed, "case"));

  // Crash plan: up to t crashes over distinct victims. One third of the
  // cases use a crash-at-send *burst* (several processes dying within a
  // few sends of each other, mid-broadcast); otherwise each victim
  // independently crashes at a random time or send count.
  const int ncrash = static_cast<int>(rng.uniform(0, p.t));
  std::vector<ProcessId> ids(static_cast<std::size_t>(p.n));
  for (int i = 0; i < p.n; ++i) ids[static_cast<std::size_t>(i)] = i;
  rng.shuffle(ids);
  const bool burst = rng.flip(1.0 / 3.0);
  const std::uint64_t burst_base =
      static_cast<std::uint64_t>(rng.uniform(1, 30));
  for (int i = 0; i < ncrash; ++i) {
    const ProcessId pid = ids[static_cast<std::size_t>(i)];
    if (burst) {
      c.crashes.crash_after_sends(
          pid, burst_base + static_cast<std::uint64_t>(rng.uniform(0, 5)));
    } else if (rng.flip(0.5)) {
      c.crashes.crash_at(pid, rng.uniform(0, p.horizon / 4));
    } else {
      c.crashes.crash_after_sends(
          pid, static_cast<std::uint64_t>(rng.uniform(1, 60)));
    }
  }

  // Delay adversary: cycle through the kinds so every seed band
  // exercises every bias. Windows close early enough (<= horizon/8)
  // that eventual properties still have room to stabilize.
  AdversarySpec a;
  switch (rng.uniform(0, 3)) {
    case 0:
      a.kind = AdversaryKind::kUniform;
      a.hi = rng.uniform(2, 30);
      break;
    case 1: {
      a.kind = AdversaryKind::kStarvation;
      const int nv = static_cast<int>(rng.uniform(1, p.n - 1));
      a.victims = rng.subset(ProcSet::full(p.n), nv);
      a.release = rng.uniform(p.horizon / 20, p.horizon / 8);
      break;
    }
    case 2:
      a.kind = AdversaryKind::kNearHorizon;
      a.release = rng.uniform(p.horizon / 20, p.horizon / 8);
      break;
    default:
      a.kind = AdversaryKind::kBursty;
      a.epoch = rng.uniform(32, 256);
      a.slow_lo = 40;
      a.slow_hi = rng.uniform(80, 160);
      break;
  }
  c.adversary = a;
  return c;
}

std::string describe_case(const ScheduleCase& c) {
  std::ostringstream os;
  os << "seed=" << c.seed << " crashes=[";
  bool first = true;
  for (const sim::CrashEntry& e : c.crashes.entries()) {
    if (!first) os << " ";
    first = false;
    if (e.send_trigger) {
      os << "p" << e.pid << "#" << *e.send_trigger;
    } else {
      os << "p" << e.pid << "@" << e.at_time;
    }
  }
  os << "] adversary={" << c.adversary.to_string() << "}";
  return os.str();
}

}  // namespace saf::check
