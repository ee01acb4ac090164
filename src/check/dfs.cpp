#include "check/dfs.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "sim/delay_policy.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/state_digest.h"
#include "util/check.h"
#include "util/permutation.h"

namespace saf::check {

namespace {

/// One node on the DFS choice stack.
struct StackEntry {
  std::size_t choice = 0;    ///< branch taken on the current run
  std::size_t branches = 1;  ///< branching factor observed here
  std::uint64_t digest = 0;  ///< canonical state fingerprint, if any
  bool has_digest = false;
};

/// The unified replay/odometer engine behind both DFS modes. Each run
/// replays the committed choice prefix, then extends it with
/// first-branch choices; advance() moves the deepest non-exhausted
/// node to its next branch. The visited map keys canonical state
/// digests to the largest remaining-depth budget with which that state
/// has been fully explored — arriving at a known state with no more
/// budget than before proves the whole subtree is a duplicate.
class ChoiceEngine {
 public:
  ChoiceEngine(const DfsOptions& opt, std::vector<util::Perm> group,
               DfsStats* stats)
      : opt_(opt),
        group_(std::move(group)),
        stats_(stats),
        hashing_(opt.state_hash || opt.symmetry) {}

  void begin_run() {
    consumed_ = 0;
    prune_rest_ = false;
    sim_ = nullptr;
  }

  /// RunContext::on_simulator hands the run's engine here so choice
  /// points can fingerprint the state. Protocols that never call it
  /// (legacy fixtures) silently lose hashing in menu mode; the
  /// dispatch-order mode requires it (checked by the caller).
  void attach(sim::Simulator& sim) {
    sim_ = &sim;
    sim_seen_ = true;
  }
  bool sim_seen() const { return sim_seen_; }

  /// The core choice point: branch over `branches` alternatives,
  /// returning the branch for this run. Positions beyond `depth` — or
  /// below a pruned node — take the default branch 0 and consume no
  /// stack space, exactly like the original odometer.
  std::size_t choose(std::size_t branches) {
    if (branches <= 1) return 0;
    if (prune_rest_) return 0;
    if (consumed_ >= static_cast<std::size_t>(opt_.depth)) return 0;
    ++stats_->choice_points;
    const std::size_t i = consumed_;
    if (i < stack_.size()) {
      // Replaying this run's committed prefix. Determinism means the
      // branching factor must match what was seen on the first visit.
      util::require(stack_[i].branches == branches,
                    "dfs: nondeterministic branching on replay");
      ++consumed_;
      note_depth();
      return stack_[i].choice;
    }
    StackEntry e;
    e.branches = branches;
    if (hashing_ && sim_ != nullptr) {
      e.digest = canonical_digest();
      e.has_digest = true;
      const int budget = opt_.depth - static_cast<int>(i);
      auto [it, fresh] = visited_.try_emplace(e.digest, kUnexplored);
      if (fresh) ++stats_->distinct_states;
      if (!fresh && it->second >= budget) {
        // Fully explored before with at least this much depth left:
        // every continuation below is a duplicate. Finish the run on
        // default branches; advance() then moves on above this node.
        ++stats_->hash_prunes;
        prune_rest_ = true;
        return 0;
      }
    }
    stack_.push_back(e);
    ++consumed_;
    note_depth();
    return 0;  // new nodes always start at branch 0
  }

  /// Dispatch-order choice point: pick which of the race's same-instant
  /// pending deliveries dispatches next (an index into `race`).
  std::size_t choose_race(std::span<const sim::Event> race) {
    ++stats_->race_points;
    if (!opt_.por) return choose(race.size());
    // Persistent set: deliveries to ONE receiver form an ample set —
    // deliveries to distinct receivers commute (receiver-local state;
    // handler sends land at strictly later instants), UNLESS
    // dispatching one can fire a send-triggered crash, which mutates
    // the failure pattern every handler may read. In that case fall
    // back to the full race.
    bool clean = true;
    for (const sim::Event& e : race) {
      if (sim_->pending_send_trigger(e.to)) {
        clean = false;
        break;
      }
    }
    ample_.clear();
    const ProcessId r0 = race.front().to;
    for (std::size_t i = 0; i < race.size(); ++i) {
      if (!clean || race[i].to == r0) ample_.push_back(i);
    }
#ifndef NDEBUG
    // Ample-set soundness recheck: nonempty, contains the default
    // dispatch (so pruned/over-depth runs follow queue order), and,
    // when reduced, every deferred event targets a different receiver
    // than the ample set's. The full race defers nothing.
    SAF_CHECK(!ample_.empty() && ample_.front() == 0);
    for (std::size_t i = 0, a = 0; clean && i < race.size(); ++i) {
      if (a < ample_.size() && ample_[a] == i) {
        SAF_CHECK(race[i].to == race[ample_.front()].to);
        ++a;
      } else {
        SAF_CHECK(race[i].to != race[ample_.front()].to);
      }
    }
#endif
    // Beyond the explored frontier the chooser degenerates to the
    // default dispatch anyway — only count reduction where branching
    // would actually have happened.
    if (ample_.size() < race.size() && !prune_rest_ &&
        consumed_ < static_cast<std::size_t>(opt_.depth)) {
      ++stats_->por_points;
      stats_->por_branches_saved += race.size() - ample_.size();
    }
    return ample_[choose(ample_.size())];
  }

  /// Moves the odometer to the next unexplored leaf; false when the
  /// (reduced) tree is exhausted.
  bool advance() {
    // Entries beyond what this run consumed belong to abandoned deeper
    // branches; drop them before advancing.
    stack_.resize(std::min(stack_.size(), consumed_));
    while (!stack_.empty() &&
           stack_.back().choice + 1 >= stack_.back().branches) {
      // Exhausted node: its state is now fully explored with the
      // remaining budget it had; record that for future pruning.
      if (stack_.back().has_digest) {
        const int budget = opt_.depth - static_cast<int>(stack_.size()) + 1;
        int& best = visited_[stack_.back().digest];
        best = std::max(best, budget);
      }
      stack_.pop_back();
    }
    if (stack_.empty()) return false;
    ++stack_.back().choice;
    return true;
  }

 private:
  static constexpr int kUnexplored = -1;

  void note_depth() {
    stats_->max_depth_used =
        std::max(stats_->max_depth_used, static_cast<int>(consumed_));
  }

  /// Identity digest, minimized over the symmetry group when one is
  /// installed: the canonical fingerprint of the state's orbit.
  std::uint64_t canonical_digest() {
    ++stats_->states_hashed;
    sim::StateDigest d0;
    sim_->state_digest(d0);
    std::uint64_t best = d0.value();
    if (opt_.symmetry && group_.size() > 1) {
      bool relabeled = false;
      for (const util::Perm& perm : group_) {
        if (perm.is_identity()) continue;
        sim::StateDigest d(&perm);
        sim_->state_digest(d);
        if (d.value() < best) {
          best = d.value();
          relabeled = true;
        }
      }
      if (relabeled) ++stats_->sym_canonical_hits;
    }
    return best;
  }

  const DfsOptions& opt_;
  const std::vector<util::Perm> group_;
  DfsStats* stats_;
  const bool hashing_;
  std::vector<StackEntry> stack_;
  std::vector<std::size_t> ample_;  ///< choose_race scratch, reused
  /// digest -> largest remaining-depth budget fully explored (or
  /// kUnexplored when only seen).
  std::unordered_map<std::uint64_t, int> visited_;
  std::size_t consumed_ = 0;
  bool prune_rest_ = false;
  sim::Simulator* sim_ = nullptr;
  bool sim_seen_ = false;
};

/// kDelayMenu mode: every delay request is a choice over the menu.
class MenuDelayPolicy final : public sim::DelayPolicy {
 public:
  MenuDelayPolicy(ChoiceEngine* eng, const std::vector<Time>* menu)
      : eng_(eng), menu_(menu) {}

  Time delay(ProcessId, ProcessId, Time, util::Rng&) override {
    return (*menu_)[eng_->choose(menu_->size())];
  }

 private:
  ChoiceEngine* eng_;
  const std::vector<Time>* menu_;
};

}  // namespace

DfsReport explore_interleavings(const Protocol& p, const ScheduleCase& base,
                                const DfsOptions& opt) {
  util::require(opt.depth >= 0, "dfs: negative depth");
  util::require(!opt.menu.empty(), "dfs: empty delay menu");
  for (const Time d : opt.menu) {
    util::require(d >= 1, "dfs: menu delays must be >= 1");
  }
  util::require(opt.step_delay >= 1, "dfs: step delay must be >= 1");
  const DfsMode mode = opt.por ? DfsMode::kDispatchOrder : opt.mode;

  DfsReport report;
  std::vector<util::Perm> group;
  if (opt.symmetry && p.sym_signatures != nullptr) {
    group = util::perms_fixing_signatures(p.sym_signatures(base));
  }
  report.stats.group_size = group.empty() ? 1 : group.size();

  ChoiceEngine eng(opt, std::move(group), &report.stats);
  std::unordered_set<std::uint64_t> digests;
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&t0] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  while (report.runs < opt.max_runs) {
    if (opt.wall_budget_ms > 0 && elapsed_ms() >= opt.wall_budget_ms) break;
    eng.begin_run();
    RunContext ctx;
    if (mode == DfsMode::kDelayMenu) {
      ctx.delay_factory = [&eng, &opt] {
        return std::make_unique<MenuDelayPolicy>(&eng, &opt.menu);
      };
      ctx.on_simulator = [&eng](sim::Simulator& s) { eng.attach(s); };
    } else {
      ctx.delay_factory = [&opt] {
        return std::make_unique<sim::FixedDelay>(opt.step_delay);
      };
      ctx.on_simulator = [&eng](sim::Simulator& s) {
        eng.attach(s);
        s.set_race_chooser(
            [&eng](std::span<const sim::Event> race) {
              return eng.choose_race(race);
            });
      };
    }
    RunOutcome out = p.run(base, ctx);
    ++report.runs;
    if (mode == DfsMode::kDispatchOrder) {
      util::require(eng.sim_seen(),
                    "dfs: dispatch-order mode needs the protocol to thread "
                    "RunContext::on_simulator");
    }
    digests.insert(out.digest);
    std::vector<std::int64_t> ds = out.decisions;
    std::sort(ds.begin(), ds.end());
    report.decision_sets.insert(std::move(ds));
    if (!out.ok) report.violations.push_back(Violation{base, std::move(out)});
    if (!eng.advance()) {
      report.exhausted = true;
      break;
    }
  }
  report.distinct_digests = digests.size();
  report.stats.wall_ms = elapsed_ms();
  const double secs =
      static_cast<double>(std::max<std::int64_t>(report.stats.wall_ms, 1)) /
      1000.0;
  report.stats.runs_per_sec = static_cast<double>(report.runs) / secs;
  return report;
}

}  // namespace saf::check
