#include "check/dfs.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "sim/delay_policy.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/state_digest.h"
#include "sweep/thread_pool.h"
#include "util/check.h"
#include "util/permutation.h"

namespace saf::check {

namespace {

/// One branch point of a choice prefix.
struct Step {
  std::size_t choice = 0;    ///< branch taken
  std::size_t branches = 1;  ///< branching factor observed here
};

/// A choice point a replay met past its prefix: a node the odometer
/// pushes at branch 0 unless the visited map prunes it.
struct NewNode {
  std::size_t branches = 1;
  std::uint64_t digest = 0;  ///< canonical state fingerprint, if any
  bool has_digest = false;
  bool relabeled = false;  ///< a symmetry relabeling won the minimum
  /// The replay's POR counters on reaching this node: what the serial
  /// search has counted when it prunes here.
  std::uint64_t por_points = 0;
  std::uint64_t por_saved = 0;
};

/// What one replay of a prefix tells the odometer. Its trajectory is a
/// pure function of the prefix — every choice past it is branch 0,
/// pruned or not — so it can be recorded on any thread and committed
/// later.
struct Replay {
  RunOutcome out;
  std::vector<NewNode> nodes;  ///< choice points past the prefix, in order
  std::uint64_t race_points = 0;
  std::uint64_t por_points = 0;  ///< whole-run totals (no prune)
  std::uint64_t por_saved = 0;
  bool sim_seen = false;
  /// The last node was already fully explored when recorded, so the
  /// odometer prunes at it or above and nothing later was recorded.
  bool stopped = false;
  std::exception_ptr error;  ///< the run threw; rethrown on commit
};

class Recorder;

/// The serial odometer over the choice stack, plus the threads that
/// replay ahead of it. Each run replays its committed prefix, then
/// extends it with first-branch choices; advance() moves the deepest
/// non-exhausted node to its next branch. The visited map keys
/// canonical state digests to the largest remaining-depth budget with
/// which that state has been fully explored — arriving at a known state
/// with no more budget than before proves the whole subtree is a
/// duplicate.
///
/// Once a node with b branches is pushed, the runs for its branches
/// 1..b-1 are runs the serial search will certainly execute (unless
/// max_runs or the wall budget stops it), so each gets a slot that a
/// worker may fill early. Participant 0 commits the replays strictly in
/// serial DFS order, running the one it needs itself when no worker has
/// claimed it; every statistic and the visited map change only there.
class Search {
 public:
  Search(const Protocol& p, const ScheduleCase& base, const DfsOptions& opt,
         DfsMode mode, std::vector<util::Perm> group, DfsReport* report)
      : p_(p),
        base_(base),
        opt_(opt),
        mode_(mode),
        group_(std::move(group)),
        hashing_(opt.state_hash || opt.symmetry),
        report_(report) {}

  void run();

  /// True when `digest` was fully explored with at least `budget` depth
  /// left. The map only grows and its budgets only rise, so a node
  /// found here is pruned — at it or above — whenever it is committed.
  bool explored(std::uint64_t digest, int budget) const {
    std::lock_guard<std::mutex> l(mu_);
    const auto it = visited_.find(digest);
    return it != visited_.end() && it->second >= budget;
  }

 private:
  friend class Recorder;  // reads the search's fixed inputs

  static constexpr int kUnexplored = -1;

  /// The replay of one branch >= 1 of a stack node.
  struct Slot {
    bool claimed = false;
    std::unique_ptr<Replay> replay;  ///< set once a worker finished it
  };

  /// One node on the DFS choice stack.
  struct Node {
    Step step;
    std::uint64_t digest = 0;
    bool has_digest = false;
    std::vector<Slot> slots;  ///< slots[c - 1] replays branch c
  };

  void commit_loop(Recorder& rec);
  void worker_loop(Recorder& rec);
  void commit(Replay& r);
  bool advance();
  bool claim(std::size_t* node, std::size_t* branch);
  std::vector<Step> prefix_of(std::size_t node, std::size_t branch) const;
  std::int64_t elapsed_ms() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  const Protocol& p_;
  const ScheduleCase& base_;
  const DfsOptions& opt_;
  const DfsMode mode_;
  const std::vector<util::Perm> group_;
  const bool hashing_;
  DfsReport* report_;
  std::chrono::steady_clock::time_point t0_;
  std::size_t window_ = 0;  ///< cap on worker replays not yet committed

  // Everything below is guarded by mu_.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers: a slot or the window opened
  std::condition_variable ready_cv_;  ///< committer: a worker filled a slot
  std::vector<Node> stack_;
  /// digest -> largest remaining-depth budget fully explored (or
  /// kUnexplored when only seen).
  std::unordered_map<std::uint64_t, int> visited_;
  std::unordered_set<std::uint64_t> digests_;
  std::size_t outstanding_ = 0;  ///< worker-claimed, not yet committed
  bool done_ = false;
};

/// Replays one choice prefix on the calling thread and records what the
/// odometer needs from it. One per thread, reused across replays.
class Recorder {
 public:
  explicit Recorder(const Search& s) : s_(s) {}

  void replay(std::span<const Step> prefix, Replay* out);

  /// The core choice point: branch over `branches` alternatives,
  /// returning the branch for this run. Positions beyond `depth` — or
  /// below a node the odometer will prune — take the default branch 0
  /// and consume no stack space.
  std::size_t choose(std::size_t branches);

  /// Dispatch-order choice point: pick which of the race's same-instant
  /// pending deliveries dispatches next (an index into `race`).
  std::size_t choose_race(std::span<const sim::Event> race);

 private:
  std::uint64_t canonical_digest(bool* relabeled) const;

  const Search& s_;
  std::vector<std::size_t> ample_;  ///< choose_race scratch, reused
  std::span<const Step> prefix_;
  Replay* rec_ = nullptr;
  std::size_t consumed_ = 0;
  bool stopped_ = false;
  sim::Simulator* sim_ = nullptr;
};

/// kDelayMenu mode: every delay request is a choice over the menu.
class MenuDelayPolicy final : public sim::DelayPolicy {
 public:
  MenuDelayPolicy(Recorder* rec, const std::vector<Time>* menu)
      : rec_(rec), menu_(menu) {}

  Time delay(ProcessId, ProcessId, Time, util::Rng&) override {
    return (*menu_)[rec_->choose(menu_->size())];
  }

 private:
  Recorder* rec_;
  const std::vector<Time>* menu_;
};

void Recorder::replay(std::span<const Step> prefix, Replay* out) {
  prefix_ = prefix;
  rec_ = out;
  consumed_ = 0;
  stopped_ = false;
  sim_ = nullptr;
  // RunContext::on_simulator hands the run's engine here so choice
  // points can fingerprint the state. Protocols that never call it
  // (legacy fixtures) silently lose hashing in menu mode; the
  // dispatch-order mode requires it (checked on commit).
  RunContext ctx;
  if (s_.mode_ == DfsMode::kDelayMenu) {
    ctx.delay_factory = [this] {
      return std::make_unique<MenuDelayPolicy>(this, &s_.opt_.menu);
    };
    ctx.on_simulator = [this](sim::Simulator& sim) {
      sim_ = &sim;
      rec_->sim_seen = true;
    };
  } else {
    ctx.delay_factory = [this] {
      return std::make_unique<sim::FixedDelay>(s_.opt_.step_delay);
    };
    ctx.on_simulator = [this](sim::Simulator& sim) {
      sim_ = &sim;
      rec_->sim_seen = true;
      sim.set_race_chooser([this](std::span<const sim::Event> race) {
        return choose_race(race);
      });
    };
  }
  try {
    out->out = s_.p_.run(s_.base_, ctx);
    util::require(consumed_ >= prefix_.size(),
                  "dfs: nondeterministic branching on replay");
  } catch (...) {
    out->error = std::current_exception();
  }
  out->stopped = stopped_;
}

std::size_t Recorder::choose(std::size_t branches) {
  if (branches <= 1 || stopped_) return 0;
  if (consumed_ >= static_cast<std::size_t>(s_.opt_.depth)) return 0;
  const std::size_t i = consumed_++;
  if (i < prefix_.size()) {
    // Replaying the committed prefix. Determinism means the branching
    // factor must match what was seen on the first visit.
    util::require(prefix_[i].branches == branches,
                  "dfs: nondeterministic branching on replay");
    return prefix_[i].choice;
  }
  NewNode& n = rec_->nodes.emplace_back();
  n.branches = branches;
  n.por_points = rec_->por_points;
  n.por_saved = rec_->por_saved;
  if (s_.hashing_ && sim_ != nullptr) {
    n.digest = canonical_digest(&n.relabeled);
    n.has_digest = true;
    // Known to be fully explored already: the odometer cuts the run
    // here or above, so the rest of it is not recorded. When every
    // earlier run is committed (always, with one job) this is exactly
    // the serial prune point.
    stopped_ = s_.explored(n.digest, s_.opt_.depth - static_cast<int>(i));
  }
  return 0;  // new nodes always start at branch 0
}

std::size_t Recorder::choose_race(std::span<const sim::Event> race) {
  ++rec_->race_points;
  if (!s_.opt_.por) return choose(race.size());
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
  if (ample_.size() < race.size() && !stopped_ &&
      consumed_ < static_cast<std::size_t>(s_.opt_.depth)) {
    ++rec_->por_points;
    rec_->por_saved += race.size() - ample_.size();
  }
  return ample_[choose(ample_.size())];
}

/// Identity digest, minimized over the symmetry group when one is
/// installed: the canonical fingerprint of the state's orbit.
std::uint64_t Recorder::canonical_digest(bool* relabeled) const {
  sim::StateDigest d0;
  sim_->state_digest(d0);
  std::uint64_t best = d0.value();
  if (s_.opt_.symmetry && s_.group_.size() > 1) {
    for (const util::Perm& perm : s_.group_) {
      if (perm.is_identity()) continue;
      sim::StateDigest d(&perm);
      sim_->state_digest(d);
      if (d.value() < best) {
        best = d.value();
        *relabeled = true;
      }
    }
  }
  return best;
}

void Search::run() {
  t0_ = std::chrono::steady_clock::now();
  sweep::ThreadPool pool(opt_.jobs);
  window_ = 4 * static_cast<std::size_t>(pool.jobs());
  pool.parallel_for(static_cast<std::size_t>(pool.jobs()),
                    [this](std::size_t i) {
                      Recorder rec(*this);
                      if (i == 0) {
                        commit_loop(rec);
                      } else {
                        worker_loop(rec);
                      }
                    });
  report_->distinct_digests = digests_.size();
  DfsStats& st = report_->stats;
  st.wall_ms = elapsed_ms();
  const double secs =
      static_cast<double>(std::max<std::int64_t>(st.wall_ms, 1)) / 1000.0;
  st.runs_per_sec = static_cast<double>(report_->runs) / secs;
}

void Search::commit_loop(Recorder& rec) {
  // However the loop ends (exhausted, capped, or a replay's exception),
  // the workers stop taking slots and return.
  struct Release {
    Search* s;
    ~Release() {
      {
        std::lock_guard<std::mutex> l(s->mu_);
        s->done_ = true;
      }
      s->work_cv_.notify_all();
    }
  } release{this};

  std::vector<Step> prefix;  // the root run replays the empty prefix
  bool own = true;           // this thread runs the next replay itself
  std::unique_ptr<Replay> r;
  while (report_->runs < opt_.max_runs) {
    if (opt_.wall_budget_ms > 0 && elapsed_ms() >= opt_.wall_budget_ms) break;
    if (own) {
      r = std::make_unique<Replay>();
      rec.replay(prefix, r.get());
    }
    std::unique_lock<std::mutex> l(mu_);
    if (!own) {
      Slot& slot = stack_.back().slots[stack_.back().step.choice - 1];
      ready_cv_.wait(l, [&slot] { return slot.replay != nullptr; });
      r = std::move(slot.replay);
      --outstanding_;
    }
    if (r->error) std::rethrow_exception(r->error);
    commit(*r);
    if (!advance()) {
      report_->exhausted = true;
      break;
    }
    Slot& next = stack_.back().slots[stack_.back().step.choice - 1];
    own = !next.claimed;
    if (own) {
      next.claimed = true;
      prefix = prefix_of(stack_.size() - 1, stack_.back().step.choice);
    }
    l.unlock();
    work_cv_.notify_all();
  }
}

void Search::worker_loop(Recorder& rec) {
  std::unique_lock<std::mutex> l(mu_);
  for (;;) {
    std::size_t node = 0;
    std::size_t branch = 0;
    work_cv_.wait(l, [&] { return done_ || claim(&node, &branch); });
    if (done_) return;
    const std::vector<Step> prefix = prefix_of(node, branch);
    l.unlock();
    auto r = std::make_unique<Replay>();
    rec.replay(prefix, r.get());
    l.lock();
    if (done_) return;
    // The node is still on the stack: it pops only after every one of
    // its branches, this one included, is committed.
    stack_[node].slots[branch - 1].replay = std::move(r);
    ready_cv_.notify_one();
  }
}

/// Claims the first unclaimed slot in serial DFS order (deepest node
/// first, then ascending branch), if the window and max_runs allow
/// another replay ahead of the committer.
bool Search::claim(std::size_t* node, std::size_t* branch) {
  if (outstanding_ >= window_ ||
      report_->runs + outstanding_ + 1 >= opt_.max_runs) {
    return false;
  }
  for (std::size_t i = stack_.size(); i-- > 0;) {
    std::vector<Slot>& slots = stack_[i].slots;
    for (std::size_t c = stack_[i].step.choice; c < slots.size(); ++c) {
      if (slots[c].claimed) continue;
      slots[c].claimed = true;
      ++outstanding_;
      *node = i;
      *branch = c + 1;
      return true;
    }
  }
  return false;
}

std::vector<Step> Search::prefix_of(std::size_t node,
                                    std::size_t branch) const {
  std::vector<Step> prefix;
  prefix.reserve(node + 1);
  for (std::size_t i = 0; i < node; ++i) prefix.push_back(stack_[i].step);
  prefix.push_back(Step{branch, stack_[node].step.branches});
  return prefix;
}

/// Folds the replay of the current stack (its prefix) into the report
/// and pushes the nodes it met past the prefix, up to the first the
/// visited map prunes — what the serial search did during the run.
void Search::commit(Replay& r) {
  DfsStats& st = report_->stats;
  ++report_->runs;
  if (mode_ == DfsMode::kDispatchOrder) {
    util::require(r.sim_seen,
                  "dfs: dispatch-order mode needs the protocol to thread "
                  "RunContext::on_simulator");
  }
  st.race_points += r.race_points;
  st.choice_points += stack_.size();
  bool pruned = false;
  for (const NewNode& n : r.nodes) {
    ++st.choice_points;
    if (n.has_digest) {
      ++st.states_hashed;
      if (n.relabeled) ++st.sym_canonical_hits;
      const int budget = opt_.depth - static_cast<int>(stack_.size());
      const auto [it, fresh] = visited_.try_emplace(n.digest, kUnexplored);
      if (fresh) ++st.distinct_states;
      if (!fresh && it->second >= budget) {
        // Fully explored before with at least this much depth left:
        // every continuation below is a duplicate. The run finished on
        // default branches; advance() moves on above this node.
        ++st.hash_prunes;
        st.por_points += n.por_points;
        st.por_branches_saved += n.por_saved;
        pruned = true;
        break;
      }
    }
    Node& node = stack_.emplace_back();
    node.step.branches = n.branches;
    node.digest = n.digest;
    node.has_digest = n.has_digest;
    node.slots.resize(n.branches - 1);
  }
  SAF_CHECK_MSG(pruned || !r.stopped, "dfs: a visited-map hint did not prune");
  if (!pruned) {
    st.por_points += r.por_points;
    st.por_branches_saved += r.por_saved;
  }
  st.max_depth_used =
      std::max(st.max_depth_used, static_cast<int>(stack_.size()));
  digests_.insert(r.out.digest);
  std::vector<std::int64_t> ds = r.out.decisions;
  std::sort(ds.begin(), ds.end());
  report_->decision_sets.insert(std::move(ds));
  if (!r.out.ok) {
    report_->violations.push_back(Violation{base_, std::move(r.out)});
  }
}

/// Moves the odometer to the next unexplored leaf; false when the
/// (reduced) tree is exhausted.
bool Search::advance() {
  while (!stack_.empty() &&
         stack_.back().step.choice + 1 >= stack_.back().step.branches) {
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
  ++stack_.back().step.choice;
  return true;
}

}  // namespace

DfsReport explore_interleavings(const Protocol& p, const ScheduleCase& base,
                                const DfsOptions& opt) {
  util::require(opt.depth >= 0, "dfs: negative depth");
  util::require(!opt.menu.empty(), "dfs: empty delay menu");
  for (const Time d : opt.menu) {
    util::require(d >= 1, "dfs: menu delays must be >= 1");
  }
  util::require(opt.step_delay >= 1, "dfs: step delay must be >= 1");
  util::require(opt.jobs >= 0, "dfs: negative jobs");
  const DfsMode mode = opt.por ? DfsMode::kDispatchOrder : opt.mode;

  DfsReport report;
  std::vector<util::Perm> group;
  if (opt.symmetry && p.sym_signatures != nullptr) {
    group = util::perms_fixing_signatures(p.sym_signatures(base));
  }
  report.stats.group_size = group.empty() ? 1 : group.size();

  Search(p, base, opt, mode, std::move(group), &report).run();
  return report;
}

}  // namespace saf::check
