// sim-n1024 and dfs-kset: single-threaded batches repeated for the
// measured window. Every unit of work is checked, and must repeat the
// result the set-up pass recorded for the same input.
#include <algorithm>
#include <functional>
#include <tuple>

#include "check/dfs.h"
#include "check/protocols.h"
#include "core/invariants.h"
#include "core/kset_agreement.h"
#include "harness.h"
#include "layers.h"
#include "svc/client.h"
#include "trace/metrics.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Runs per pass over the sim-n1024 input batch.
constexpr int kSimBatch = 3;
/// Timed set-ups per run; each workload reports their median.
constexpr int kSimSetupRounds = 3;
constexpr int kDfsSetupRounds = 7;
/// Race depth the reduced search exhausts; one search takes a few
/// hundred ms on a 4-core Xeon host.
constexpr int kDfsDepth = 5;

/// One unit of work: true when its output checked out, else `why` says
/// what broke.
using Unit = std::function<bool(std::size_t i, std::string* why)>;

struct Batch {
  std::vector<double> start, end;  ///< per unit, now_ms timeline
  std::vector<double> probe;       ///< host_probe_ms after each unit
  std::uint64_t failed = 0;
  std::string first_error;
  double t0 = 0, t1 = 0;
  double user0 = 0, user1 = 0, sys0 = 0, sys1 = 0;  ///< process CPU, ms
  std::vector<std::pair<double, double>> rss;  ///< (t, MB) once a second
};

/// Total wall time of the batch's units, in ms.
double units_ms(const Batch& b) {
  double t = 0;
  for (std::size_t i = 0; i < b.start.size(); ++i) t += b.end[i] - b.start[i];
  return t;
}

/// Mean wall of a unit scaled to the reference host, in ms.
double ref_mean_ms(const Batch& b) {
  return units_ms(b) / std::max<double>(1, static_cast<double>(b.end.size())) *
         to_reference(b.probe);
}

/// Repeats `unit` until `seconds` have passed, timing each call and
/// probing the host's speed after each.
Batch run_batch(double seconds, const Unit& unit) {
  Batch b;
  b.t0 = now_ms();
  std::tie(b.user0, b.sys0) = cpu_ms();
  double next_rss = b.t0;
  for (std::size_t i = 0;; ++i) {
    const double s = now_ms();
    if (s - b.t0 >= seconds * 1e3) break;
    if (s >= next_rss) {
      b.rss.emplace_back(s, static_cast<double>(rss_kb().first) / 1024.0);
      next_rss += 1000;
    }
    std::string why;
    const bool ok = unit(i, &why);
    b.start.push_back(s);
    b.end.push_back(now_ms());
    b.probe.push_back(host_probe_ms());
    if (!ok && b.failed++ == 0) b.first_error = why;
  }
  b.t1 = now_ms();
  std::tie(b.user1, b.sys1) = cpu_ms();
  return b;
}

/// Drift of the speed of each unit over the window. Units cycle over
/// `inputs` batch inputs of unequal cost, so a unit's speed is the
/// median wall time of its input over its own wall time.
double drift_ratio(const Batch& b, std::size_t inputs) {
  std::vector<std::vector<double>> walls(inputs);
  for (std::size_t i = 0; i < b.start.size(); ++i) {
    walls[i % inputs].push_back(b.end[i] - b.start[i]);
  }
  std::vector<double> med;
  for (const auto& w : walls) med.push_back(median(w));
  std::vector<double> speed;
  for (std::size_t i = 0; i < b.start.size(); ++i) {
    speed.push_back(med[i % inputs] / (b.end[i] - b.start[i]));
  }
  return fitted_drift(speed);
}

/// The longest stretch of the window with no unit completing.
double longest_gap(const Batch& b) {
  double prev = b.t0, gap = 0;
  for (double e : b.end) {
    gap = std::max(gap, e - prev);
    prev = e;
  }
  return gap;
}

/// The end-to-end metrics of an untraced batch, under the contract's
/// names (when `contract`) and the workload's own. A traced run
/// measures half the window untraced and reports no tail. The
/// contract's times are scaled to the reference host (host_probe_ms):
/// set-up by the probes taken during set-up, units by those of the
/// window; the names the workload prints are raw walls.
void report_batch(const Batch& b, std::size_t inputs,
                  const std::vector<double>& setups,
                  const std::vector<double>& setup_probes,
                  const std::string& unit_name, bool contract,
                  RunResult* out) {
  std::vector<double> wall;
  for (std::size_t i = 0; i < b.start.size(); ++i) {
    wall.push_back(b.end[i] - b.start[i]);
  }
  const double rate =
      static_cast<double>(wall.size()) / ((b.t1 - b.t0) / 1e3);
  const double p50 = saf::svc::latency_percentile(wall, 50);
  // The contract's latency is the mean wall of a unit, not the median:
  // the host's speed shifts for tens of seconds at a time, so unit walls
  // fall into fast and slow clusters and the median jumps between them
  // (over four sets of ten dfs-kset runs on a 4-core VM, the median's
  // IQR was 13-25% of it, the mean's 9-19%).
  const double mean =
      units_ms(b) / std::max<double>(1, static_cast<double>(wall.size()));
  const double peak =
      (static_cast<double>(rss_kb().second) * 1024.0 -
       static_cast<double>(host_probe_bytes())) /
      (1024.0 * 1024.0);
  const double setup_ref = median(setups) / 1e3 * to_reference(setup_probes);
  const double mean_ref = ref_mean_ms(b);
  out->attempted += wall.size();
  out->failed += b.failed;
  if (b.failed > 0) out->fail(b.first_error);
  out->add_named("setup_s", median(setups) / 1e3, "s");
  out->add_named(unit_name + "_per_sec", rate, "1/s");
  out->add_named(unit_name + "_p50_ms", p50, "ms");
  out->add_named(unit_name + "_mean_ms", mean, "ms");
  // The tail is reported only when it has ten units beyond it.
  const double tail_p = tail_percentile(wall.size());
  if (tail_p > 0) {
    out->add_named(unit_name + "_p" + fmt_number(tail_p) + "_ms",
                   saf::svc::latency_percentile(wall, tail_p), "ms");
  }
  out->add_named(unit_name + "_samples", static_cast<double>(wall.size()),
                 "count");
  out->add_named("drift_ratio", drift_ratio(b, inputs), "ratio");
  out->add_named("peak_rss_mb", peak, "MB");
  out->add_named("host_probe_ms", median(b.probe), "ms");
  if (contract) {
    out->add("setup_s", setup_ref, "s");
    out->add("throughput_per_s", 1e3 / mean_ref, "1/s");
    out->add("latency_ms", mean_ref, "ms");
    out->add("peak_rss_mb", peak, "MB");
  }
}

/// The ledger rows every batch workload shares: the driver process is
/// the node, the batch loop the generator.
void batch_layers(const Batch& b, Ledger* led) {
  const double units = std::max<double>(1, static_cast<double>(b.end.size()));
  const double cpu = (b.user1 - b.user0) + (b.sys1 - b.sys0);
  led->set("node.user_ms_per_decision", (b.user1 - b.user0) / units);
  led->set("node.sys_ms_per_decision", (b.sys1 - b.sys0) / units);
  led->set("node.idle_share", 1.0 - cpu / (b.t1 - b.t0));
  std::vector<double> x, y;
  for (const auto& [t, mb] : b.rss) {
    x.push_back(t / 1e3);
    y.push_back(mb);
  }
  led->set("node.rss_slope_mb_per_s", slope(x, y));
  led->set("node.unattributed_share",
           cpu > 0 ? 1.0 - units_ms(b) / cpu : 0);
  std::vector<double> lag;
  for (std::size_t i = 1; i < b.start.size(); ++i) {
    lag.push_back(b.start[i] - b.end[i - 1]);
  }
  led->set("gen.lag_p99_ms", saf::svc::latency_percentile(lag, 99));
  led->set("gen.samples", static_cast<double>(b.end.size()));
  led->set("svc.outage_ms", longest_gap(b));
}

/// Unit costs on seeded stand-in inputs (these workloads have no client
/// traffic of their own).
UnitCosts stand_in_costs(std::uint64_t seed, const std::string& dir) {
  saf::util::Rng rng(seed);
  std::vector<std::int64_t> values, log;
  for (int i = 0; i < 4096; ++i) {
    values.push_back(1'000'000 + rng.uniform(0, 999'999'999));
    log.push_back(values.back());
  }
  return time_unit_costs(seed, values, log, log.size(), dir);
}

// ---------------------------------------------------------------------
// sim-n1024

/// The sweep_runner scale configuration (its "n-scaling grid"): perfect
/// Ω_2, aggregated broadcasts, one initial and one mid-run crash.
saf::core::KSetRunConfig scale_config(std::uint64_t seed) {
  saf::core::KSetRunConfig cfg;
  cfg.n = 1024;
  cfg.t = 3;
  cfg.k = cfg.z = 2;
  cfg.seed = seed;
  cfg.perfect_oracle = true;
  cfg.batched_broadcasts = true;
  cfg.horizon = 20'000;
  cfg.crashes.crash_at(cfg.n - 1, 0).crash_at(cfg.n / 2, 30);
  return cfg;
}

struct SimRef {
  std::vector<std::int64_t> decisions;
  std::vector<saf::Time> decision_times;
  saf::Time finish_time = 0;
  std::uint64_t events = 0, messages = 0;
};

bool check_sim(const saf::core::KSetRunConfig& cfg,
               const saf::core::KSetRunResult& r, const SimRef* ref,
               std::string* why) {
  const auto v = saf::core::kset_invariants(cfg, r);
  if (!v.empty()) {
    *why = "kset invariant " + v.front().invariant + ": " + v.front().detail;
    return false;
  }
  if (ref != nullptr &&
      (r.decisions != ref->decisions ||
       r.decision_times != ref->decision_times ||
       r.finish_time != ref->finish_time || r.events_processed != ref->events ||
       r.total_messages != ref->messages)) {
    *why = "run of seed " + std::to_string(cfg.seed) +
           " did not repeat its decisions and finish times";
    return false;
  }
  return true;
}

}  // namespace

RunResult run_sim(const RunArgs& args) {
  RunResult out;
  const std::string dir = make_run_dir(args.work_root, "sim-n1024");
  std::vector<saf::core::KSetRunConfig> cfgs;
  std::vector<SimRef> refs;
  std::vector<double> setups, setup_probes;
  // Set-up: build every batch input and run it once, recording the
  // reference outputs later runs must repeat. It is timed over the whole
  // batch kSimSetupRounds times (later rounds must repeat the first);
  // set-up is the median, with the host probed after each input.
  for (int round = 0; round < kSimSetupRounds; ++round) {
    const double s = now_ms();
    double probe_wall = 0;
    for (int i = 0; i < kSimBatch; ++i) {
      const saf::core::KSetRunConfig cfg =
          scale_config(saf::util::derive_seed(args.seed, i));
      const saf::core::KSetRunResult r = saf::core::run_kset_agreement(cfg);
      std::string why;
      if (!check_sim(cfg, r, round == 0 ? nullptr : &refs[i], &why)) {
        out.fail(why);
      }
      if (round == 0) {
        cfgs.push_back(cfg);
        refs.push_back(SimRef{r.decisions, r.decision_times, r.finish_time,
                              r.events_processed, r.total_messages});
      }
      const double p0 = now_ms();
      setup_probes.push_back(host_probe_ms());
      probe_wall += now_ms() - p0;
    }
    setups.push_back(now_ms() - s - probe_wall);
  }
  saf::trace::MetricsRegistry registry;
  const auto unit = [&](bool traced) -> Unit {
    return [&, traced](std::size_t i, std::string* why) {
      saf::core::KSetRunConfig cfg = cfgs[i % cfgs.size()];
      if (traced) cfg.metrics = &registry;
      const saf::core::KSetRunResult r = saf::core::run_kset_agreement(cfg);
      return check_sim(cfg, r, &refs[i % refs.size()], why);
    };
  };

  const double secs = args.trace ? args.seconds / 2 : args.seconds;
  const Batch plain = run_batch(secs, unit(false));
  report_batch(plain, kSimBatch, setups, setup_probes, "sim_runs",
               !args.trace, &out);
  double events = 0, messages = 0;
  for (const SimRef& r : refs) {
    events += static_cast<double>(r.events);
    messages += static_cast<double>(r.messages);
  }
  out.add_named("sim_events_per_sec",
                events / kSimBatch * static_cast<double>(plain.end.size()) /
                    ((plain.t1 - plain.t0) / 1e3),
                "1/s");
  if (args.trace) {
    const Batch traced = run_batch(secs, unit(true));
    out.attempted += traced.end.size();
    out.failed += traced.failed;
    if (traced.failed > 0) out.fail(traced.first_error);
    Ledger led;
    stand_in_costs(args.seed, dir).fill(&led);
    batch_layers(traced, &led);
    // Exact counts: the same inputs give the same numbers every run.
    led.set("sim.events_per_run", events / kSimBatch);
    led.set("sim.messages_per_run", messages / kSimBatch);
    double traced_events = 0;
    for (std::size_t i = 0; i < traced.end.size(); ++i) {
      traced_events += static_cast<double>(refs[i % refs.size()].events);
    }
    led.set("sim.event_ns", units_ms(traced) * 1e6 / traced_events);
    led.set("trace.overhead_share",
            1.0 - ref_mean_ms(plain) / ref_mean_ms(traced));
    out.metrics = led.entries();
  }
  remove_tree(dir);
  return out;
}

// ---------------------------------------------------------------------
// dfs-kset

namespace {

saf::check::DfsOptions dfs_options() {
  saf::check::DfsOptions opt;
  opt.depth = kDfsDepth;
  opt.mode = saf::check::DfsMode::kDispatchOrder;
  opt.state_hash = true;
  opt.symmetry = true;
  opt.por = true;
  opt.max_runs = 1u << 22;
  return opt;
}

bool check_dfs(const saf::check::DfsReport& r,
               const saf::check::DfsReport* ref, std::string* why) {
  if (!r.exhausted) {
    *why = "the search did not exhaust depth " + std::to_string(kDfsDepth);
    return false;
  }
  if (!r.clean()) {
    *why = "the search found " + std::to_string(r.violations.size()) +
           " violations";
    return false;
  }
  if (ref != nullptr &&
      (r.decision_sets != ref->decision_sets || r.runs != ref->runs ||
       r.stats.distinct_states != ref->stats.distinct_states)) {
    *why = "the search did not repeat its decision sets and counts";
    return false;
  }
  return true;
}

}  // namespace

RunResult run_dfs(const RunArgs& args) {
  RunResult out;
  const std::string dir = make_run_dir(args.work_root, "dfs-kset");
  const saf::check::Protocol* p = saf::check::find_protocol("kset-small");
  if (p == nullptr) {
    out.fail("protocol kset-small is not registered");
    return out;
  }
  // The input is fixed: the default kset-small case, whose tree the
  // search exhausts. --seed is not used, because the base case's seed
  // changes the tree size tenfold and the workload would then measure
  // different work under different seeds.
  const saf::check::ScheduleCase base;
  const saf::check::DfsOptions opt = dfs_options();

  // Set-up: kDfsSetupRounds searches, the first of which is the
  // reference; set-up is the median, with the host probed after each.
  std::vector<double> setups, setup_probes;
  saf::check::DfsReport ref;
  for (int i = 0; i < kDfsSetupRounds; ++i) {
    const double s = now_ms();
    const saf::check::DfsReport r =
        saf::check::explore_interleavings(*p, base, opt);
    std::string why;
    if (!check_dfs(r, i == 0 ? nullptr : &ref, &why)) out.fail(why);
    if (i == 0) ref = r;
    setups.push_back(now_ms() - s);
    setup_probes.push_back(host_probe_ms());
  }
  const Unit unit = [&](std::size_t, std::string* why) {
    const saf::check::DfsReport r =
        saf::check::explore_interleavings(*p, base, opt);
    return check_dfs(r, &ref, why);
  };

  const double secs = args.trace ? args.seconds / 2 : args.seconds;
  const Batch plain = run_batch(secs, unit);
  report_batch(plain, 1, setups, setup_probes, "dfs_search", !args.trace,
               &out);
  std::vector<double> wall;
  for (std::size_t i = 0; i < plain.end.size(); ++i) {
    wall.push_back(plain.end[i] - plain.start[i]);
  }
  out.add_named("dfs_wall_s", median(wall) / 1e3, "s");
  out.add_named("dfs_runs", static_cast<double>(ref.runs), "count");
  out.add_named("dfs_distinct_states",
                static_cast<double>(ref.stats.distinct_states), "count");
  if (args.trace) {
    const Batch traced = run_batch(secs, unit);
    out.attempted += traced.end.size();
    out.failed += traced.failed;
    if (traced.failed > 0) out.fail(traced.first_error);
    Ledger led;
    stand_in_costs(args.seed, dir).fill(&led);
    batch_layers(traced, &led);
    const saf::check::DfsStats& st = ref.stats;
    led.set("dfs.runs", static_cast<double>(ref.runs));
    led.set("dfs.distinct_states", static_cast<double>(st.distinct_states));
    led.set("dfs.hash_prune_ratio",
            st.states_hashed > 0 ? static_cast<double>(st.hash_prunes) /
                                       static_cast<double>(st.states_hashed)
                                 : 0);
    led.set("dfs.por_saved_per_race",
            st.race_points > 0 ? static_cast<double>(st.por_branches_saved) /
                                     static_cast<double>(st.race_points)
                               : 0);
    led.set("dfs.us_per_run",
            units_ms(traced) * 1e3 /
                static_cast<double>(ref.runs * traced.end.size()));
    led.set("trace.overhead_share",
            1.0 - ref_mean_ms(plain) / ref_mean_ms(traced));
    out.metrics = led.entries();
  }
  remove_tree(dir);
  return out;
}

}  // namespace perfbench
