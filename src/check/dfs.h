// Bounded-DFS enumeration of delivery interleavings, with optional
// state-space reductions.
//
// Random sweeps sample schedule space; for small instances (n <= 4 on
// the Fig 3 k-set algorithm) the space of *delivery orders* can be
// enumerated outright, in the spirit of TLA-style exhaustive model
// checking. Two notions of "choice point" are supported:
//
//   * kDelayMenu (the original mode): each of the first `depth` delay
//     requests picks from a small delay menu; the tree has
//     |menu|^depth leaves.
//   * kDispatchOrder: delays are fixed and each of the first `depth`
//     same-instant delivery races picks which pending delivery
//     dispatches next — the direct adversary over message order.
//
// The explorer walks the choice tree depth-first with a replaying
// odometer over the choice stack, running the full simulation at every
// leaf and evaluating the protocol's invariants. A replay is a pure
// function of its choice prefix, so replays the odometer is certain to
// need run ahead on worker threads and are committed in serial DFS
// order: the report does not depend on DfsOptions::jobs. Three reductions
// prune the walk without changing the verdict or the set of distinct
// terminal decisions (tests/test_dfs_reduction.cpp pins this
// differentially; docs/exhaustive_checking.md has the soundness
// arguments):
//
//   * state_hash — canonical state fingerprints
//     (Simulator::state_digest) feed a visited set; a subtree is
//     skipped when its root state was already fully explored with at
//     least as much remaining depth.
//   * symmetry — fingerprints are canonicalized under the protocol's
//     process-relabeling group (Protocol::sym_signatures), merging
//     runs that differ only by a renaming of indistinguishable
//     processes.
//   * por — persistent-set partial-order reduction: at a delivery
//     race, only orderings of deliveries to one receiver are explored
//     when deliveries to distinct receivers provably commute.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "check/explorer.h"

namespace saf::check {

/// What a choice point is (see the header comment).
enum class DfsMode {
  kDelayMenu,
  /// Requires the protocol to thread RunContext::on_simulator (the
  /// built-in kset / two-wheels harnesses do).
  kDispatchOrder,
};

struct DfsOptions {
  /// Number of leading choice points explored; deeper choices take the
  /// default branch (first menu entry / queue order).
  int depth = 10;
  /// Candidate delays per choice point in kDelayMenu mode. Two
  /// well-separated values are enough to flip delivery orders.
  std::vector<Time> menu = {1, 6};
  /// Hard cap on executed runs (a guard, not a sampling knob: if it
  /// binds, `exhausted` is false).
  std::uint64_t max_runs = 1u << 14;
  DfsMode mode = DfsMode::kDelayMenu;
  /// Visited-state pruning on canonical state fingerprints.
  bool state_hash = false;
  /// Canonicalize fingerprints under the protocol's symmetry group
  /// (enables the visited set even without state_hash).
  bool symmetry = false;
  /// Persistent-set partial-order reduction (implies kDispatchOrder).
  bool por = false;
  /// Fixed message delay in kDispatchOrder mode.
  Time step_delay = 1;
  /// Wall-clock budget for the whole search in milliseconds (0 =
  /// unlimited). When it binds, `exhausted` stays false. NOT
  /// deterministic — use max_runs for reproducible truncation.
  std::int64_t wall_budget_ms = 0;
  /// Threads replaying the choice tree (sweep::ThreadPool); 0 picks
  /// ThreadPool::default_jobs(). Every field of the report except
  /// stats.wall_ms and stats.runs_per_sec is the same for every value.
  int jobs = 0;
};

/// Reduction-effectiveness counters for one search (the --dfs-stats
/// JSON mirrors these; see docs/exhaustive_checking.md for the schema).
struct DfsStats {
  std::uint64_t choice_points = 0;  ///< branch points hit (incl. replays)
  std::uint64_t race_points = 0;    ///< dispatch-order races consulted
  std::uint64_t states_hashed = 0;  ///< canonical digests computed
  std::uint64_t distinct_states = 0;
  std::uint64_t hash_prunes = 0;    ///< subtrees skipped via the visited set
  std::uint64_t sym_canonical_hits = 0;  ///< states where a relabeling won
  std::uint64_t por_points = 0;          ///< races where ample < full
  std::uint64_t por_branches_saved = 0;  ///< deferred race alternatives
  std::size_t group_size = 1;  ///< symmetry group order (1 = identity)
  int max_depth_used = 0;      ///< deepest choice point actually branched
  std::int64_t wall_ms = 0;
  double runs_per_sec = 0.0;
};

struct DfsReport {
  std::uint64_t runs = 0;
  bool exhausted = false;  ///< the whole (reduced) choice tree was enumerated
  std::uint64_t distinct_digests = 0;
  std::vector<Violation> violations;
  /// Distinct terminal decision multisets (each leaf's decisions,
  /// sorted): the reduction-invariant observable the differential
  /// equivalence tests pin.
  std::set<std::vector<std::int64_t>> decision_sets;
  DfsStats stats;

  bool clean() const { return violations.empty(); }
};

/// Exhaustively enumerates interleavings of `base` under `p`. The
/// case's adversary spec is ignored — the choice tree IS the adversary.
DfsReport explore_interleavings(const Protocol& p, const ScheduleCase& base,
                                const DfsOptions& opt = {});

}  // namespace saf::check
