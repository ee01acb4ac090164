// Reduced-DFS state-space benchmark (docs/exhaustive_checking.md).
//
// Measures what the three reductions of check/dfs buy on the canonical
// kset-small instance in dispatch-order mode, two ways:
//
//   * equal depth: brute force vs hash+symmetry+POR at --depth, giving
//     the state-reduction factor and both searches' runs/sec;
//   * depth reach: the deepest race depth each variant exhausts within
//     --budget-ms of wall clock.
//
// Every search replays on all cores (DfsOptions::jobs 0); the JSON
// records how many. The explored trees, and so the run counts, do not
// depend on it; the runs/sec and the depth reach do.
//
// Writes the BENCH_dfs.json baseline checked in at the repo root; with
// --baseline FILE [--tolerance F] it additionally gates the *_per_sec
// metrics via sweep::compare_benchmarks, exactly like the other perf
// baselines (the CI perf job runs that), and requires the equal-depth
// tree sizes (brute_runs, reduced_runs) to equal the baseline's
// exactly: they are machine-independent, so a change means the
// explored tree changed. Depth reach and the reduction factor are
// reported but not gated.
//
// Like bench_rt_*, this is deliberately not a google-benchmark binary
// (one "iteration" is an entire exhaustive search); CI's
// --benchmark_list_tests sweep over build/bench skips it by name.
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "check/dfs.h"
#include "check/protocols.h"
#include "sweep/bench_json.h"
#include "sweep/thread_pool.h"

namespace {

using saf::check::DfsMode;
using saf::check::DfsOptions;
using saf::check::DfsReport;
using saf::check::explore_interleavings;
using saf::check::Protocol;

void print_usage(std::ostream& os) {
  os << "usage: bench_dfs [--protocol NAME] [--depth D] [--budget-ms MS]\n"
        "                 [--max-reach-depth D] [--out FILE]\n"
        "                 [--baseline FILE] [--tolerance F] [--help]\n";
}

int usage(const std::string& err = "") {
  if (!err.empty()) std::cerr << "bench_dfs: " << err << "\n";
  print_usage(std::cerr);
  return 2;
}

template <typename Int>
bool parse_int(const char* flag, const char* v, long long lo, Int* out) {
  errno = 0;
  char* end = nullptr;
  const long long raw = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || raw < lo) {
    std::cerr << "bench_dfs: " << flag << " expects an integer >= " << lo
              << "\n";
    return false;
  }
  *out = static_cast<Int>(raw);
  return true;
}

DfsOptions race_opt(int depth, bool reduced) {
  DfsOptions opt;
  opt.depth = depth;
  opt.mode = DfsMode::kDispatchOrder;
  opt.state_hash = reduced;
  opt.symmetry = reduced;
  opt.por = reduced;
  opt.max_runs = 1u << 22;
  return opt;
}

/// The deepest depth whose search exhausts within `budget_ms`; each
/// depth gets the full budget (searches are independent).
int max_exhausted_depth(const Protocol& p, bool reduced, int max_depth,
                        std::int64_t budget_ms) {
  int reached = 0;
  for (int depth = 1; depth <= max_depth; ++depth) {
    DfsOptions opt = race_opt(depth, reduced);
    opt.wall_budget_ms = budget_ms;
    const DfsReport r = explore_interleavings(p, {}, opt);
    if (!r.exhausted) break;
    reached = depth;
  }
  return reached;
}

}  // namespace

int main(int argc, char** argv) {
  std::string protocol = "kset-small";
  int depth = 3;
  int max_reach_depth = 24;
  std::int64_t budget_ms = 2'000;
  std::string out_path = "BENCH_dfs.json";
  std::string baseline_path;
  double tolerance = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "bench_dfs: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--protocol") {
      if ((v = value("--protocol")) == nullptr) return usage();
      protocol = v;
    } else if (arg == "--depth") {
      if ((v = value("--depth")) == nullptr ||
          !parse_int("--depth", v, 1, &depth)) {
        return usage();
      }
    } else if (arg == "--budget-ms") {
      if ((v = value("--budget-ms")) == nullptr ||
          !parse_int("--budget-ms", v, 1, &budget_ms)) {
        return usage();
      }
    } else if (arg == "--max-reach-depth") {
      if ((v = value("--max-reach-depth")) == nullptr ||
          !parse_int("--max-reach-depth", v, 1, &max_reach_depth)) {
        return usage();
      }
    } else if (arg == "--out") {
      if ((v = value("--out")) == nullptr) return usage();
      out_path = v;
    } else if (arg == "--baseline") {
      if ((v = value("--baseline")) == nullptr) return usage();
      baseline_path = v;
    } else if (arg == "--tolerance") {
      if ((v = value("--tolerance")) == nullptr) return usage();
      char* end = nullptr;
      tolerance = std::strtod(v, &end);
      if (end == v || *end != '\0' || tolerance < 0) {
        return usage("--tolerance expects a non-negative number");
      }
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else {
      std::cerr << "bench_dfs: unknown flag " << arg << "\n";
      return usage();
    }
  }
  const Protocol* p = saf::check::find_protocol(protocol);
  if (p == nullptr) return usage("unknown protocol '" + protocol + "'");

  // Equal depth: the headline states-explored comparison.
  const DfsReport brute = explore_interleavings(*p, {}, race_opt(depth, false));
  const DfsReport reduced =
      explore_interleavings(*p, {}, race_opt(depth, true));
  if (!brute.exhausted || !reduced.exhausted) {
    std::cerr << "bench_dfs: --depth " << depth
              << " did not exhaust; lower it or raise max_runs\n";
    return 1;
  }
  if (brute.clean() != reduced.clean() ||
      brute.decision_sets != reduced.decision_sets) {
    // The bench doubles as a cheap differential check: a divergence
    // here is a soundness bug, not a perf regression.
    std::cerr << "bench_dfs: reduced search diverged from brute force\n";
    return 1;
  }
  const double reduction_x = static_cast<double>(brute.runs) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 reduced.runs, 1));

  // Depth reach: how much deeper the same wall budget goes.
  const int brute_reach =
      max_exhausted_depth(*p, false, max_reach_depth, budget_ms);
  const int reduced_reach =
      max_exhausted_depth(*p, true, max_reach_depth, budget_ms);

  saf::sweep::JsonWriter w;
  w.begin_object();
  w.key("schema").value("saf-bench-dfs-v1");
  w.key("protocol").value(protocol);
  w.key("mode").value("race");
  w.key("jobs").value(saf::sweep::ThreadPool::default_jobs());
  w.key("equal_depth");
  w.begin_object();
  w.key("depth").value(depth);
  w.key("brute_runs").value(brute.runs);
  w.key("reduced_runs").value(reduced.runs);
  w.key("state_reduction_x").value(reduction_x);
  w.key("brute_runs_per_sec").value(brute.stats.runs_per_sec);
  w.key("reduced_runs_per_sec").value(reduced.stats.runs_per_sec);
  w.end_object();
  w.key("depth_reach");
  w.begin_object();
  w.key("budget_ms").value(budget_ms);
  w.key("brute_max_depth").value(brute_reach);
  w.key("reduced_max_depth").value(reduced_reach);
  w.end_object();
  w.end_object();
  saf::sweep::write_file(out_path, w.str() + "\n");
  std::cout << w.str() << "\n";

  if (!baseline_path.empty()) {
    try {
      saf::sweep::RegressionReport rep = saf::sweep::compare_benchmarks(
          saf::sweep::load_json_numbers(baseline_path),
          saf::sweep::parse_json_numbers(w.str()), tolerance);
      const saf::sweep::RegressionReport exact = saf::sweep::compare_exact(
          saf::sweep::load_json_integers(baseline_path),
          saf::sweep::parse_json_integers(w.str()), [](std::string_view key) {
            return key == "equal_depth.brute_runs" ||
                   key == "equal_depth.reduced_runs";
          });
      rep.regressions.insert(rep.regressions.end(), exact.regressions.begin(),
                             exact.regressions.end());
      rep.missing.insert(rep.missing.end(), exact.missing.begin(),
                         exact.missing.end());
      for (const std::string& line : rep.regressions) {
        std::cerr << "bench_dfs: REGRESSION " << line << "\n";
      }
      for (const std::string& key : rep.missing) {
        std::cerr << "bench_dfs: MISSING " << key << "\n";
      }
      if (!rep.ok()) return 1;
      std::cerr << "bench_dfs: within " << tolerance << " of baseline "
                << baseline_path << "\n";
    } catch (const std::exception& e) {
      std::cerr << "bench_dfs: baseline check failed: " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}
