// Edge cases and extra compositions for k-set agreement:
// minimal systems, duplicate proposals, k = t, and Fig 3 driven by the
// Appendix-A construction (φ̄_y → Ω_z is a LeaderOracle, so it plugs
// straight into the protocol — reductions compose in the type system).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/kset_agreement.h"
#include "core/phibar_to_omega.h"
#include "fd/omega_oracle.h"
#include "fd/query_oracles.h"
#include "sim/delay_policy.h"
#include "sim/network.h"
#include "util/permutation.h"

namespace saf::core {
namespace {

TEST(KSetEdges, MinimalSystemThreeProcessesOneCrash) {
  KSetRunConfig cfg;
  cfg.n = 3;
  cfg.t = 1;
  cfg.k = cfg.z = 1;
  cfg.seed = 5;
  cfg.crashes.crash_at(2, 50);
  auto r = run_kset_agreement(cfg);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_EQ(r.distinct_decided, 1);
  EXPECT_TRUE(r.validity);
}

TEST(KSetEdges, DuplicateProposalsStillValid) {
  KSetRunConfig cfg;
  cfg.n = 5;
  cfg.t = 2;
  cfg.k = cfg.z = 2;
  cfg.seed = 7;
  cfg.proposals = {42, 42, 42, 7, 7};
  auto r = run_kset_agreement(cfg);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.validity);
  for (std::int64_t v : r.decisions) {
    EXPECT_TRUE(v == 42 || v == 7 || v == kNoValue);
  }
}

TEST(KSetEdges, AllSameProposalDecidesThatValue) {
  KSetRunConfig cfg;
  cfg.n = 7;
  cfg.t = 3;
  cfg.k = cfg.z = 3;
  cfg.seed = 9;
  cfg.proposals.assign(7, 99);
  auto r = run_kset_agreement(cfg);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_EQ(r.distinct_decided, 1);
  for (std::int64_t v : r.decisions) {
    EXPECT_TRUE(v == 99 || v == kNoValue);
  }
}

TEST(KSetEdges, KEqualsTIsTheEasiestAgreement) {
  KSetRunConfig cfg;
  cfg.n = 9;
  cfg.t = 4;
  cfg.k = cfg.z = 4;
  cfg.seed = 11;
  cfg.crashes.crash_at(0, 30).crash_at(2, 60).crash_at(4, 90).crash_at(6, 120);
  auto r = run_kset_agreement(cfg);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_LE(r.distinct_decided, 4);
}

TEST(KSetEdges, NegativeAndExtremeProposalValues) {
  KSetRunConfig cfg;
  cfg.n = 5;
  cfg.t = 2;
  cfg.k = cfg.z = 2;
  cfg.seed = 13;
  cfg.proposals = {INT64_MAX, -1, 0, INT64_MIN + 1, 5};
  auto r = run_kset_agreement(cfg);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.validity);
}

TEST(KSetEdges, BottomIsNotAValidProposal) {
  KSetRunConfig cfg;
  cfg.n = 3;
  cfg.t = 1;
  cfg.k = cfg.z = 1;
  cfg.proposals = {kNoValue, 1, 2};
  EXPECT_THROW(run_kset_agreement(cfg), std::invalid_argument);
}

// --- Composition: Appendix A construction drives Fig 3 --------------------

TEST(KSetEdges, PhiBarBackedOmegaDrivesKSetAgreement) {
  const int n = 8, t = 3, y = 2;
  const int z = t + 1 - y;  // Ω_2 from φ̄_2
  sim::SimConfig sc;
  sc.n = n;
  sc.t = t;
  sc.seed = 17;
  sc.horizon = 60'000;
  sim::CrashPlan plan;
  plan.crash_at(0, 70).crash_at(5, 200);
  sim::Simulator sim(sc, plan, std::make_unique<sim::UniformDelay>(1, 9));

  fd::QueryOracleParams qp;
  qp.stab_time = 250;
  qp.detect_delay = 10;
  qp.seed = 23;
  fd::PhiOracle phi(sim.pattern(), y, qp);
  fd::PhiBarOracle bar(phi);
  PhiBarToOmega omega(bar, n, t, y, z);  // a LeaderOracle

  std::vector<const KSetProcess*> procs;
  for (ProcessId i = 0; i < n; ++i) {
    auto p = std::make_unique<KSetProcess>(i, n, t, omega, 100 + i);
    procs.push_back(p.get());
    sim.add_process(std::move(p));
  }
  const bool done = sim.run_until([&] {
    return std::all_of(procs.begin(), procs.end(), [&](const auto* p) {
      return sim.is_crashed(p->id()) || p->core().decided();
    });
  });
  EXPECT_TRUE(done) << "phibar-backed k-set agreement did not terminate";
  std::set<std::int64_t> values;
  for (const auto* p : procs) {
    if (p->core().decided()) values.insert(p->core().decision());
  }
  EXPECT_GE(values.size(), 1u);
  EXPECT_LE(values.size(), static_cast<std::size_t>(z));
}

TEST(KSetEdges, LeaderSetWithCrashedMemberStillTerminates) {
  // A legal Ω_2 may keep a crashed process in its eventual set forever;
  // the protocol only relies on the one correct member.
  const int n = 7, t = 3;
  sim::SimConfig sc;
  sc.n = n;
  sc.t = t;
  sc.seed = 19;
  sc.horizon = 60'000;
  sim::CrashPlan plan;
  plan.crash_at(6, 50);
  sim::Simulator sim(sc, plan, std::make_unique<sim::UniformDelay>(1, 9));
  fd::OmegaOracleParams op;
  op.stab_time = 0;
  op.anarchy_before_stab = false;
  op.forced_final_set = ProcSet{0, 6};  // p6 crashes and stays trusted
  fd::OmegaZOracle omega(sim.pattern(), 2, op);
  std::vector<const KSetProcess*> procs;
  for (ProcessId i = 0; i < n; ++i) {
    auto p = std::make_unique<KSetProcess>(i, n, t, omega, 100 + i);
    procs.push_back(p.get());
    sim.add_process(std::move(p));
  }
  const bool done = sim.run_until([&] {
    return std::all_of(procs.begin(), procs.end(), [&](const auto* p) {
      return sim.is_crashed(p->id()) || p->core().decided();
    });
  });
  EXPECT_TRUE(done);
  std::set<std::int64_t> values;
  for (const auto* p : procs) {
    if (p->core().decided()) values.insert(p->core().decision());
  }
  EXPECT_LE(values.size(), 2u);
  EXPECT_GE(values.size(), 1u);
}

// --- Receive state: digest fold and phase-1 semantics ---------------------

class FixedLeaders final : public fd::LeaderOracle {
 public:
  explicit FixedLeaders(ProcSet l) : l_(l) {}
  ProcSet trusted(ProcessId, Time) const override { return l_; }

 private:
  ProcSet l_;
};

template <typename M>
M from(ProcessId sender, M m) {
  m.sender = sender;
  return m;
}

/// The fold of a core that has received the given messages but never
/// run (round 0, phase 0, undecided), with the buffers written out as
/// plain per-round message lists: per phase the number of rounds, then
/// per round its number, its size, and per message the sender followed
/// by the message's own digest_into().
template <typename Buffers>
void mix_rounds(sim::StateDigest& d, const Buffers& by_round) {
  d.mix_u64(by_round.size());
  for (const auto& [r, msgs] : by_round) {
    d.mix_i64(r);
    d.mix_u64(msgs.size());
    for (const auto& m : msgs) {
      d.mix_id(m.sender);
      m.digest_into(d);
    }
  }
}

std::uint64_t reference_digest(const util::Perm* perm, std::int64_t est,
                               int instance,
                               const std::map<int, std::vector<Phase1Msg>>& p1,
                               const std::map<int, std::vector<Phase2Msg>>& p2) {
  sim::StateDigest d(perm);
  d.mix_i64(est);
  d.mix_i64(instance);
  d.mix_i64(0);  // round
  d.mix_i64(0);  // phase
  d.mix_set(ProcSet{});
  d.mix_bool(false);
  d.mix_i64(kNoValue);
  d.mix_i64(kNeverTime);
  d.mix_i64(0);  // decision round
  mix_rounds(d, p1);
  mix_rounds(d, p2);
  return d.value();
}

TEST(KSetReceiveState, DigestFoldsReceiptsLikeRetainedMessages) {
  const int n = 5, t = 2, instance = 3;
  const std::int64_t proposal = 7;
  const ProcSet a{0, 1}, b{2}, c{3, 4};
  const FixedLeaders omega(a);
  sim::Process host(0, n, t);
  KSetCore core(host, omega, proposal, instance);

  // Two rounds, three leader sets, a duplicate copy, bottom and
  // non-bottom phase-2 values, round-1 traffic after round 2 started,
  // and one message of another instance (not consumed, not folded).
  std::map<int, std::vector<Phase1Msg>> p1;
  std::map<int, std::vector<Phase2Msg>> p2;
  const auto phase1 = [&](const Phase1Msg& m) {
    ASSERT_TRUE(core.on_message(m));
    p1[m.round].push_back(m);
  };
  const auto phase2 = [&](const Phase2Msg& m) {
    ASSERT_TRUE(core.on_message(m));
    p2[m.round].push_back(m);
  };
  phase1(from(2, Phase1Msg{1, a, 20, instance}));
  phase1(from(4, Phase1Msg{2, c, 40, instance}));
  phase2(from(1, Phase2Msg{1, kNoValue, instance}));
  phase1(from(0, Phase1Msg{1, b, 10, instance}));
  phase1(from(2, Phase1Msg{1, a, 20, instance}));  // duplicate copy
  phase2(from(3, Phase2Msg{1, 30, instance}));
  phase2(from(4, Phase2Msg{2, 44, instance}));
  phase1(from(3, Phase1Msg{1, c, 30, instance}));  // round 1, after round 2
  phase2(from(0, Phase2Msg{1, 10, instance}));
  phase1(from(1, Phase1Msg{2, a, 11, instance}));
  EXPECT_FALSE(core.on_message(from(1, Phase1Msg{1, b, 99, instance + 1})));

  const util::Perm relabel({3, 0, 4, 1, 2});
  for (const util::Perm* perm : {static_cast<const util::Perm*>(nullptr),
                                 &relabel}) {
    sim::StateDigest d(perm);
    core.state_digest(d);
    EXPECT_EQ(d.value(), reference_digest(perm, proposal, instance, p1, p2))
        << (perm == nullptr ? "identity" : "relabeled");
  }

  // Receipt order within a round is state: reversing it changes the
  // digest, and the reference follows.
  KSetCore reversed(host, omega, proposal, instance);
  for (auto& [r, msgs] : p1) {
    std::reverse(msgs.begin(), msgs.end());
    for (const Phase1Msg& m : msgs) reversed.on_message(m);
  }
  for (const auto& [r, msgs] : p2) {
    for (const Phase2Msg& m : msgs) reversed.on_message(m);
  }
  sim::StateDigest d_core, d_reversed;
  core.state_digest(d_core);
  reversed.state_digest(d_reversed);
  EXPECT_NE(d_core.value(), d_reversed.value());
  EXPECT_EQ(d_reversed.value(),
            reference_digest(nullptr, proposal, instance, p1, p2));
}

TEST(KSetReceiveState, DropsPhase1FromSendersOutsideTheRun) {
  // Only a wire decoder can produce such a sender; the core must not
  // index its sender set with it, nor count it towards n - t.
  const int n = 5, t = 2;
  const FixedLeaders omega(ProcSet{0});
  sim::Process host(0, n, t);
  KSetCore fed(host, omega, 7), clean(host, omega, 7);
  const Phase1Msg valid = from(1, Phase1Msg{1, ProcSet{0}, 11});
  EXPECT_TRUE(fed.on_message(valid));
  EXPECT_TRUE(clean.on_message(valid));
  EXPECT_TRUE(fed.on_message(from(n, Phase1Msg{1, ProcSet{0}, 12})));
  EXPECT_TRUE(fed.on_message(from(-1, Phase1Msg{1, ProcSet{0}, 13})));
  EXPECT_TRUE(fed.on_message(from(kMaxProcs, Phase1Msg{1, ProcSet{0}, 14})));
  sim::StateDigest d_fed, d_clean;
  fed.state_digest(d_fed);
  clean.state_digest(d_clean);
  EXPECT_EQ(d_fed.value(), d_clean.value());
}

/// Sends one scripted round-1 phase-1 message to process 0 at boot.
class Phase1Feeder final : public sim::Process {
 public:
  Phase1Feeder(ProcessId id, int n, int t, ProcSet leaders, std::int64_t est)
      : Process(id, n, t), leaders_(leaders), est_(est) {}
  void boot() override { send_to(0, Phase1Msg{1, leaders_, est_}); }

 private:
  ProcSet leaders_;
  std::int64_t est_;
};

struct ScriptedPhase1 {
  ProcSet leaders;
  std::int64_t est;  ///< ignored for process 0, which proposes 100
};

/// Runs process 0 (a KSetProcess whose Ω says `subject_leaders`) against
/// feeders 1..n-1 that each send it one phase-1 message; `script[i]` is
/// what process i sends, and `order` is the order in which process 0
/// receives the round-1 phase-1 messages (its own included). Returns the
/// aux of the phase-2 message process 0 broadcasts, as seen on the wire.
std::int64_t round1_aux(ProcSet subject_leaders,
                        const std::vector<ScriptedPhase1>& script,
                        const std::vector<ProcessId>& order) {
  const int n = static_cast<int>(script.size());
  sim::SimConfig sc;
  sc.n = n;
  sc.t = (n - 1) / 2;
  sc.horizon = 1000;
  auto delays = std::make_unique<sim::ScriptedDelay>(
      [order](ProcessId src, ProcessId dst, Time, util::Rng&) -> Time {
        if (dst != 0) return 1;
        const auto pos = std::find(order.begin(), order.end(), src);
        return 1 + (pos - order.begin());
      });
  sim::Simulator sim(sc, sim::CrashPlan{}, std::move(delays));
  const FixedLeaders omega(subject_leaders);
  sim.add_process(std::make_unique<KSetProcess>(0, n, sc.t, omega, 100));
  for (ProcessId i = 1; i < n; ++i) {
    const auto& s = script[static_cast<std::size_t>(i)];
    sim.add_process(
        std::make_unique<Phase1Feeder>(i, n, sc.t, s.leaders, s.est));
  }
  std::optional<std::int64_t> aux;
  sim.set_delivery_observer([&aux](Time, ProcessId, const sim::Message& m) {
    const auto* p2 = dynamic_cast<const Phase2Msg*>(&m);
    if (p2 != nullptr && m.sender == 0 && p2->round == 1) aux = p2->aux;
  });
  EXPECT_TRUE(sim.run_until([&aux] { return aux.has_value(); }));
  return aux.value_or(kNoValue);
}

TEST(KSetReceiveState, MajorityLeaderSetNeedNotBeFirstSeenOrSmallest) {
  // Process 0 waits for its leader p4. By then {1,2} holds 3 of 5
  // phase-1 messages; {0} was seen first and is smaller in ProcSet order.
  const std::vector<ScriptedPhase1> script = {
      {{4}, 0}, {{1, 2}, 11}, {{1, 2}, 22}, {{0}, 33}, {{1, 2}, 44}};
  EXPECT_EQ(round1_aux(ProcSet{4}, script, {3, 0, 2, 1, 4}), 22);
}

TEST(KSetReceiveState, EstimateComesFromFirstReceiptFromMajoritySet) {
  const std::vector<ScriptedPhase1> script = {
      {{4}, 0}, {{1, 2}, 11}, {{1, 2}, 22}, {{0}, 33}, {{1, 2}, 44}};
  // p2's message arrives before p1's: p2's estimate, not the lowest id's.
  EXPECT_EQ(round1_aux(ProcSet{4}, script, {3, 0, 2, 1, 4}), 22);
  EXPECT_EQ(round1_aux(ProcSet{4}, script, {3, 0, 1, 2, 4}), 11);
}

TEST(KSetReceiveState, NoMajorityLeaderSetGivesBottom) {
  // Largest tally is {1,2} with 2 of 5: no set passes n/2.
  const std::vector<ScriptedPhase1> script = {
      {{4}, 0}, {{3}, 11}, {{1, 2}, 22}, {{0}, 33}, {{1, 2}, 44}};
  EXPECT_EQ(round1_aux(ProcSet{4}, script, {3, 0, 2, 1, 4}), kNoValue);
}

class KSetSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KSetSeedSweep, SafetyNeverWaversAcrossSchedules) {
  KSetRunConfig cfg;
  cfg.n = 8;
  cfg.t = 3;
  cfg.k = cfg.z = 2;
  cfg.seed = GetParam();
  cfg.omega_stab = 150 + 50 * (GetParam() % 7);
  cfg.crashes.crash_at(static_cast<ProcessId>(GetParam() % 8),
                       20 * (1 + GetParam() % 10));
  cfg.crashes.crash_after_sends(
      static_cast<ProcessId>((GetParam() + 3) % 8),
      10 + GetParam() % 40);
  auto r = run_kset_agreement(cfg);
  EXPECT_TRUE(r.all_correct_decided) << "seed " << GetParam();
  EXPECT_TRUE(r.validity);
  EXPECT_LE(r.distinct_decided, 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KSetSeedSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace saf::core
