// Ω_k-based k-set agreement (paper Fig 3, §3).
//
// Each process proposes a value; every correct process decides such that
//   Validity    — decided values were proposed,
//   Agreement   — at most k distinct values are decided,
//   Termination — every correct process decides,
// assuming t < n/2 and an underlying failure detector of class Ω_z with
// z <= k (both bounds are tight — Theorem 5; bench_thm5_bounds exercises
// the violations).
//
// The protocol proceeds in asynchronous rounds of two phases. Phase 1
// anchors at most |L| <= k non-bottom estimates per round via a majority
// leader set; phase 2 is a commit/adopt exchange: decide when no bottom
// is seen among n-t phase-2 values, adopt any non-bottom value otherwise.
// Decisions are disseminated by reliable broadcast (task T2), so one
// decision implies all correct processes decide.
//
// The algorithm is oracle-efficient and zero-degrading (§3.2): with a
// perfect Ω_k (same output from time 0) and only initial crashes, every
// correct process decides in the first round.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "fault/fault_spec.h"
#include "fault/monitor.h"
#include "fd/oracle.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace saf::core {

/// The paper's bottom value.
inline constexpr std::int64_t kNoValue = INT64_MIN;

// Phase messages put their two ints first: they pack right after the
// 16-byte Message header, which keeps the copies the service buffers
// for future instances as small as the payload allows.
struct Phase1Msg final : sim::Message {
  Phase1Msg(int r, ProcSet l, std::int64_t e, int inst = 0)
      : round(r), instance(inst), leaders(l), est(e) {}
  std::string_view tag() const override { return "phase1"; }
  const Message* corrupted(util::Arena& arena,
                           util::Rng& rng) const override;
  void digest_into(sim::StateDigest& d) const override {
    d.mix_tag("phase1");
    d.mix_i64(round);
    d.mix_set(leaders);
    d.mix_i64(est);
    d.mix_i64(instance);
  }
  int round;
  int instance;  ///< repeated-agreement instance (0 for one-shot use)
  ProcSet leaders;  ///< L_i — the sender's leader set this round
  std::int64_t est;
};

struct Phase2Msg final : sim::Message {
  Phase2Msg(int r, std::int64_t a, int inst = 0)
      : round(r), instance(inst), aux(a) {}
  std::string_view tag() const override { return "phase2"; }
  const Message* corrupted(util::Arena& arena,
                           util::Rng& rng) const override;
  void digest_into(sim::StateDigest& d) const override {
    d.mix_tag("phase2");
    d.mix_i64(round);
    d.mix_i64(aux);
    d.mix_i64(instance);
  }
  int round;
  int instance;
  std::int64_t aux;  ///< kNoValue encodes bottom
};

struct DecisionMsg final : sim::Message {
  explicit DecisionMsg(std::int64_t v, int inst = 0)
      : value(v), instance(inst) {}
  std::string_view tag() const override { return "decision"; }
  const Message* corrupted(util::Arena& arena,
                           util::Rng& rng) const override;
  void digest_into(sim::StateDigest& d) const override {
    d.mix_tag("decision");
    d.mix_i64(value);
    d.mix_i64(instance);
  }
  std::int64_t value;
  int instance;
};

/// The protocol logic, embeddable in any Process (so it can be stacked on
/// top of a transformation emulating its Ω_z oracle — the paper's
/// reduction methodology).
class KSetCore {
 public:
  /// `instance` tags this core's messages so several sequential (or even
  /// concurrent) agreement instances can share one process; each core
  /// only consumes traffic carrying its own instance id.
  KSetCore(sim::Process& host, const fd::LeaderOracle& omega,
           std::int64_t proposal, int instance = 0);

  /// The main task (paper task T1). Spawn from the host's boot().
  sim::ProtocolTask main();

  /// Returns true if the message was consumed (phase1/phase2 traffic).
  bool on_message(const sim::Message& m);
  /// Returns true if the message was consumed (decision dissemination).
  bool on_rdeliver(const sim::Message& m);

  bool decided() const { return decided_; }
  /// True once main() has returned: no task or wait predicate refers
  /// to this core any more, so its host may destroy it.
  bool main_finished() const { return main_finished_; }
  std::int64_t decision() const { return decision_; }
  Time decision_time() const { return decision_time_; }
  /// Round the host was in when it decided (1-based).
  int decision_round() const { return decision_round_; }
  int rounds_started() const { return round_; }

  /// DFS state fingerprint: every member that shapes future behavior,
  /// including the main coroutine's position (phase_) and its captured
  /// leader set (cur_leaders_), which live in coroutine frames the
  /// digest cannot inspect. Received phase-1/2 records fold in receipt
  /// order, each exactly as its message's digest_into() would —
  /// estimate_from takes the FIRST matching record and commit adoption
  /// takes the LAST non-bottom aux, so receipt order is real state (it
  /// is what the widened-oracle bug fixture's violations hang on; see
  /// docs/exhaustive_checking.md).
  void state_digest(sim::StateDigest& d) const;

 private:
  /// What a received phase message contributes: its values, not a copy.
  /// Duplicate receipts (the fault layer's dup profile) get a record
  /// each: every receipt counts towards n - t.
  struct Phase1Record {
    ProcessId sender;
    int leaders;  ///< index into leader_sets_
    std::int64_t est;
  };
  struct Phase2Record {
    ProcessId sender;
    std::int64_t aux;
  };

  int intern(const ProcSet& leaders);
  int count_phase1(int r) const;
  bool phase1_from(int r, ProcSet l) const;
  std::optional<ProcSet> majority_leader_set(int r) const;
  std::optional<std::int64_t> estimate_from(int r, ProcSet l) const;

  sim::Process& host_;
  const fd::LeaderOracle& omega_;
  std::int64_t est_;
  int instance_;
  int round_ = 0;
  /// Coroutine-position mirrors for state_digest(): which co_await of
  /// main() is pending (0 = not in a round yet / between rounds, 1 =
  /// phase-1 wait, 2 = phase-2 wait, 3 = decision wait) and the leader
  /// set main() captured for the current round.
  int phase_ = 0;
  ProcSet cur_leaders_;
  /// Distinct leader sets seen in phase-1 traffic; Ω_z yields a few.
  std::vector<ProcSet> leader_sets_;
  /// Per round, in receipt order.
  std::map<int, std::vector<Phase1Record>> phase1_;
  std::map<int, std::vector<Phase2Record>> phase2_;
  /// The senders in phase1_[r], for phase1_from; derived from phase1_,
  /// so state_digest() does not fold it.
  std::map<int, ProcSet> phase1_senders_;
  bool decided_ = false;
  /// Not folded by state_digest(): the host's waiter multiset already
  /// tells a finished main() from a suspended one.
  bool main_finished_ = false;
  std::int64_t decision_ = kNoValue;
  Time decision_time_ = kNeverTime;
  int decision_round_ = 0;
};

/// A self-contained process running only the k-set agreement protocol.
class KSetProcess final : public sim::Process {
 public:
  KSetProcess(ProcessId id, int n, int t, const fd::LeaderOracle& omega,
              std::int64_t proposal)
      : Process(id, n, t), core_(*this, omega, proposal) {}

  void boot() override { spawn(core_.main()); }
  void on_message(const sim::Message& m) override { core_.on_message(m); }
  void on_rdeliver(const sim::Message& m) override { core_.on_rdeliver(m); }
  void state_digest(sim::StateDigest& d) const override {
    core_.state_digest(d);
  }

  const KSetCore& core() const { return core_; }

 private:
  KSetCore core_;
};

// ---------------------------------------------------------------------
// Run harness
// ---------------------------------------------------------------------

struct KSetRunConfig {
  int n = 7;
  int t = 3;
  int k = 2;  ///< agreement bound to check against
  int z = 2;  ///< Ω_z class index of the oracle (z <= k for correctness)
  std::uint64_t seed = 1;
  Time omega_stab = 200;   ///< oracle stabilization time
  bool perfect_oracle = false;  ///< Ω output fixed from time 0 (§3.2)
  /// Optional fixed final leader set for the Ω_z oracle (forwarded to
  /// OmegaOracleParams::forced_final_set). The DFS symmetry instances
  /// pin the oracle to a known scope so process-id relabelings that fix
  /// it are true run symmetries.
  std::optional<ProcSet> forced_final_set;
  Time horizon = 100'000;
  Time tick_period = 5;
  Time delay_min = 1;
  Time delay_max = 10;
  /// Value proposed by process i; defaults to 100 + i when empty.
  std::vector<std::int64_t> proposals;
  sim::CrashPlan crashes;
  /// Optional override of the network delay policy (schedule
  /// exploration, record/replay — src/check). Called once with the
  /// run's seed; when null, delay_min/delay_max selects a Fixed or
  /// Uniform policy as before.
  std::function<std::unique_ptr<sim::DelayPolicy>(std::uint64_t seed)>
      delay_factory;
  /// Optional observer of every message delivery (trace recording).
  sim::DeliveryObserver delivery_observer;
  /// Optional hook handed the run's Simulator after construction and
  /// before the run starts — the DFS checker installs its race chooser
  /// and state-digest sampling through this seam.
  std::function<void(sim::Simulator&)> on_simulator;
  /// Optional structured trace sink / metrics registry, installed on the
  /// run's Simulator. The Ω oracle is wrapped in a TracedLeaderOracle
  /// when a sink is present, so fd_query / fd_change events appear in
  /// the trace. Null (the default) keeps the hot path untouched.
  trace::TraceSink* trace_sink = nullptr;
  trace::MetricsRegistry* metrics = nullptr;
  std::uint32_t trace_mask = trace::kDefaultMask;
  /// Optional wrapper interposed between the run's Ω_z oracle and the
  /// processes — the golden-trace mutation tests use this to inject a
  /// misbehaving oracle into an otherwise identical configuration. The
  /// returned oracle must not outlive `base`.
  std::function<std::unique_ptr<fd::LeaderOracle>(const fd::LeaderOracle& base)>
      oracle_wrapper;
  /// Optional fault spec (src/fault/): lossy links, a spec-violating
  /// oracle wrap, extra crashes. Null (the default) keeps the run — and
  /// its traces — bit-identical to the clean path. Must outlive the call.
  const fault::FaultSpec* faults = nullptr;
  /// Watchdog budgets forwarded to SimConfig (0 = disabled).
  std::uint64_t max_events = 0;
  std::int64_t wall_budget_ms = 0;
  /// Aggregated broadcast fan-out for large n (forwarded to
  /// SimConfig::batched_broadcasts; changes the schedule — keep off for
  /// digest-pinned workloads).
  bool batched_broadcasts = false;
  /// Envelope slack the contract monitors add to the oracle's
  /// stabilization time (see fault::MonitorWindow).
  Time monitor_slack = 100;
};

struct KSetRunResult {
  bool all_correct_decided = false;
  std::vector<std::int64_t> decisions;   ///< kNoValue if undecided
  std::vector<Time> decision_times;      ///< kNeverTime if undecided
  std::vector<int> decision_rounds;      ///< 0 if undecided
  int distinct_decided = 0;
  int max_round = 0;          ///< max round started by any decided process
  Time finish_time = kNeverTime;  ///< when the last correct process decided
  std::uint64_t total_messages = 0;
  std::uint64_t events_processed = 0;  ///< engine events (determinism pin)
  bool validity = false;      ///< every decision was proposed
  bool agreement_k = false;   ///< distinct_decided <= k
  bool timed_out = false;     ///< a watchdog budget stopped the run
  /// Model-compliance report (empty unless cfg.faults was set and the
  /// monitors found a broken assumption).
  fault::ComplianceReport compliance;
};

KSetRunResult run_kset_agreement(const KSetRunConfig& cfg);

}  // namespace saf::core
