// Tests for the failure-detector oracles: each oracle must satisfy the
// axioms of its own class (validated by the property checkers), and the
// checkers themselves must reject histories that violate the axioms.
#include <gtest/gtest.h>

#include "fd/checkers.h"
#include "fd/emulated.h"
#include "fd/omega_oracle.h"
#include "fd/query_oracles.h"
#include "fd/suspect_oracles.h"
#include "sim/failure_pattern.h"
#include "util/rng.h"

namespace saf::fd {
namespace {

constexpr Time kHorizon = 5000;

sim::FailurePattern make_pattern(int n, int t,
                                 std::vector<std::pair<ProcessId, Time>> crashes) {
  sim::CrashPlan plan;
  for (auto [pid, at] : crashes) plan.crash_at(pid, at);
  sim::FailurePattern fp(n, t, plan);
  for (auto [pid, at] : crashes) fp.record_crash(pid, at);
  return fp;
}

// --- ◇S_x / S_x ---------------------------------------------------------

class SuspectOracleAxioms
    : public ::testing::TestWithParam<std::tuple<int, int, Time, double>> {};

TEST_P(SuspectOracleAxioms, SatisfiesCompletenessAndScopedAccuracy) {
  const auto [n, x, stab, noise] = GetParam();
  auto fp = make_pattern(n, n / 2, {{1, 100}, {n - 1, 700}});
  SuspectOracleParams params;
  params.stab_time = stab;
  params.detect_delay = 10;
  params.noise_prob = noise;
  params.seed = 5;
  LimitedScopeSuspectOracle oracle(fp, x, params);
  const SetHistory h = sample_suspects(oracle, n, kHorizon, 5);

  const auto completeness = check_strong_completeness(h, fp, kHorizon);
  EXPECT_TRUE(completeness.pass) << completeness.detail;

  const auto accuracy = check_limited_scope_accuracy(
      h, fp, x, kHorizon, /*perpetual=*/stab == 0 && noise == 0.0);
  EXPECT_TRUE(accuracy.pass) << accuracy.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SuspectOracleAxioms,
    ::testing::Values(std::tuple{5, 1, Time{0}, 0.0},
                      std::tuple{5, 3, Time{0}, 0.0},
                      std::tuple{7, 4, Time{400}, 0.1},
                      std::tuple{7, 7, Time{400}, 0.2},
                      std::tuple{9, 5, Time{1000}, 0.05}));

TEST(SuspectOracle, PerpetualScopeNeverSuspectsSafeLeader) {
  auto fp = make_pattern(6, 2, {{0, 50}});
  SuspectOracleParams params;
  params.stab_time = 0;
  params.noise_prob = 0.3;
  LimitedScopeSuspectOracle oracle(fp, 3, params);
  const ProcessId leader = oracle.safe_leader();
  EXPECT_TRUE(oracle.scope().contains(leader));
  EXPECT_EQ(oracle.scope().size(), 3);
  for (Time tau = 0; tau <= 2000; tau += 7) {
    for (ProcessId i : oracle.scope()) {
      EXPECT_FALSE(oracle.suspected(i, tau).contains(leader))
          << "scope member " << i << " suspected the leader at " << tau;
    }
  }
}

TEST(SuspectOracle, CrashedObserverSuspectsNothing) {
  auto fp = make_pattern(4, 1, {{2, 100}});
  LimitedScopeSuspectOracle oracle(fp, 2, {});
  EXPECT_TRUE(oracle.suspected(2, 101).empty());
}

TEST(SuspectOracle, RejectsBadScope) {
  auto fp = make_pattern(4, 1, {});
  EXPECT_THROW(LimitedScopeSuspectOracle(fp, 0, {}), std::invalid_argument);
  EXPECT_THROW(LimitedScopeSuspectOracle(fp, 5, {}), std::invalid_argument);
}

// --- Ω_z -----------------------------------------------------------------

class OmegaOracleAxioms
    : public ::testing::TestWithParam<std::tuple<int, int, Time>> {};

TEST_P(OmegaOracleAxioms, SatisfiesEventualLeadership) {
  const auto [n, z, stab] = GetParam();
  auto fp = make_pattern(n, n / 2, {{0, 30}});
  OmegaOracleParams params;
  params.stab_time = stab;
  params.seed = 11;
  OmegaZOracle oracle(fp, z, params);
  const SetHistory h = sample_leaders(oracle, n, kHorizon, 5);
  const auto lead = check_eventual_leadership(h, fp, z, kHorizon);
  EXPECT_TRUE(lead.pass) << lead.detail;
  EXPECT_LE(lead.witness, stab + 5);
  EXPECT_LE(oracle.final_set().size(), z);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OmegaOracleAxioms,
                         ::testing::Values(std::tuple{5, 1, Time{0}},
                                           std::tuple{5, 2, Time{300}},
                                           std::tuple{8, 4, Time{800}},
                                           std::tuple{8, 8, Time{100}}));

TEST(OmegaOracle, PerfectVariantIsConstantFromTimeZero) {
  auto fp = make_pattern(5, 2, {});
  OmegaOracleParams params;
  params.stab_time = 0;
  params.anarchy_before_stab = false;
  OmegaZOracle oracle(fp, 2, params);
  for (Time tau = 0; tau < 100; ++tau) {
    for (ProcessId i = 0; i < 5; ++i) {
      EXPECT_EQ(oracle.trusted(i, tau), oracle.final_set());
    }
  }
}

/// An anarchy answer drawn the way OmegaZOracle drew it before its
/// prefix engine: a full util::Rng per query.
ProcSet reference_anarchy_set(std::uint64_t seed, ProcessId i, Time now,
                              int z, int n) {
  std::uint64_t h = util::derive_seed(seed ^ 0xa5a5a5a5ULL,
                                      static_cast<std::uint64_t>(now));
  h = util::derive_seed(h, static_cast<std::uint64_t>(i));
  util::Rng rng(h);
  const int size = static_cast<int>(rng.uniform(1, z));
  return rng.subset(ProcSet::full(n), size);
}

TEST(OmegaOracle, AnarchyAnswersEqualTheFullEngineReference) {
  // Sizes z > 155 draw past the prefix engine's hand-over to the full
  // engine; small z stay inside the prefix.
  for (const int n : {4, 64, 1024}) {
    const auto fp = make_pattern(n, n / 2, {});
    for (const int z : {1, 2, 3, n / 2, n}) {
      if (z > n) continue;
      for (const std::uint64_t seed : {1ULL, 7ULL, 11ULL, 0xdeadbeefULL}) {
        OmegaOracleParams params;
        params.stab_time = 1'000'000;
        params.seed = seed;
        const OmegaZOracle oracle(fp, z, params);
        for (const ProcessId i : {0, 1, n / 2, n - 1}) {
          for (const Time now : {Time{0}, Time{1}, Time{37}, Time{4999},
                                 Time{999'999}}) {
            ASSERT_EQ(oracle.trusted(i, now),
                      reference_anarchy_set(seed, i, now, z, n))
                << "n=" << n << " z=" << z << " seed=" << seed
                << " i=" << i << " now=" << now;
          }
        }
      }
    }
  }
}

// --- φ_y / ◇φ_y ------------------------------------------------------------

class PhiOracleAxioms
    : public ::testing::TestWithParam<std::tuple<int, int, int, Time>> {};

TEST_P(PhiOracleAxioms, SatisfiesQueryAxioms) {
  const auto [n, t, y, stab] = GetParam();
  std::vector<std::pair<ProcessId, Time>> crashes;
  for (int i = 0; i < t; ++i) crashes.push_back({i + 1, 50 * (i + 1)});
  auto fp = make_pattern(n, t, crashes);
  QueryOracleParams params;
  params.stab_time = stab;
  params.detect_delay = 10;
  PhiOracle oracle(fp, y, params);
  const auto check = check_phi_properties(oracle, fp, y, kHorizon, 5,
                                          /*perpetual=*/stab == 0, 77);
  EXPECT_TRUE(check.pass) << check.detail;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PhiOracleAxioms,
                         ::testing::Values(std::tuple{6, 2, 1, Time{0}},
                                           std::tuple{6, 2, 2, Time{0}},
                                           std::tuple{8, 3, 1, Time{500}},
                                           std::tuple{8, 3, 3, Time{500}},
                                           std::tuple{10, 4, 2, Time{900}}));

TEST(PhiOracle, TrivialitySizes) {
  auto fp = make_pattern(8, 3, {});
  PhiOracle oracle(fp, 2, {});
  // |X| <= t - y = 1: trivially true.
  EXPECT_TRUE(oracle.query(0, ProcSet{4}, 0));
  // |X| > t = 3: trivially false.
  EXPECT_FALSE(oracle.query(0, ProcSet{1, 2, 3, 4}, 0));
  // Informative size with alive members: false (perpetual safety).
  EXPECT_FALSE(oracle.query(0, ProcSet{1, 2}, 0));
}

TEST(PhiOracle, LivenessAfterRegionCrash) {
  auto fp = make_pattern(6, 2, {{1, 100}, {3, 200}});
  QueryOracleParams params;
  params.detect_delay = 10;
  PhiOracle oracle(fp, 1, params);
  const ProcSet region{1, 3};  // informative: t-y=1 < 2 <= t=2
  EXPECT_FALSE(oracle.query(0, region, 150));  // p3 still alive
  EXPECT_FALSE(oracle.query(0, region, 205));  // within detect delay
  EXPECT_TRUE(oracle.query(0, region, 215));   // all crashed + delay
}

TEST(TrivialPhi0, AnswersPurelyBySize) {
  TrivialPhi0 oracle(3);
  EXPECT_TRUE(oracle.query(0, ProcSet{0, 1, 2}, 0));
  EXPECT_FALSE(oracle.query(0, ProcSet{0, 1, 2, 3}, 0));
}

TEST(PhiBar, EnforcesContainmentObligation) {
  auto fp = make_pattern(6, 2, {});
  PhiOracle base(fp, 1, {});
  PhiBarOracle bar(base);
  EXPECT_FALSE(bar.query(0, ProcSet{0, 1}, 10));
  EXPECT_FALSE(bar.query(0, ProcSet{0, 1, 2}, 10));  // superset: fine
  EXPECT_EQ(bar.distinct_query_sets(), 2u);
  EXPECT_DEATH(bar.query(0, ProcSet{3, 4}, 10), "containment");
}

// --- Checker negative tests ------------------------------------------------

TEST(Checkers, CompletenessFailsWhenCrashNeverSuspected) {
  auto fp = make_pattern(3, 1, {{2, 100}});
  SetHistory h(3);  // nobody ever suspects anyone
  const auto res = check_strong_completeness(h, fp, kHorizon);
  EXPECT_FALSE(res.pass);
  EXPECT_NE(res.detail.find("completeness"), std::string::npos);
}

TEST(Checkers, AccuracyFailsWhenEveryCorrectProcessIsSuspectedForever) {
  auto fp = make_pattern(3, 1, {});
  SetHistory h(3);
  for (int i = 0; i < 3; ++i) {
    // Everyone permanently suspects everyone else.
    h[static_cast<std::size_t>(i)].record(
        0, ProcSet::full(3) - ProcSet{ProcessId(i)});
  }
  const auto res = check_limited_scope_accuracy(h, fp, 2, kHorizon, false);
  EXPECT_FALSE(res.pass);
}

TEST(Checkers, AccuracyPerpetualRejectsLateStabilization) {
  auto fp = make_pattern(3, 1, {});
  SetHistory h(3);
  // p1 suspects p0 until time 50, then stops: eventual OK, perpetual not.
  h[1].record(0, ProcSet{0});
  h[1].record(50, ProcSet{});
  const auto ev = check_limited_scope_accuracy(h, fp, 3, kHorizon, false);
  EXPECT_TRUE(ev.pass) << ev.detail;
  // p1 / p2 are never suspected by anyone, so a perpetual witness exists.
  EXPECT_EQ(ev.witness, 0);
  const auto perp = check_limited_scope_accuracy(h, fp, 3, kHorizon, true);
  // A different safe process (p1 or p2, never suspected at all) still
  // satisfies the perpetual property here...
  EXPECT_TRUE(perp.pass);
  // ...so force suspicion of everyone by someone at time 0 except late
  // stabilization for all:
  SetHistory h2(3);
  for (int i = 0; i < 3; ++i) {
    h2[static_cast<std::size_t>(i)].record(
        0, ProcSet::full(3) - ProcSet{ProcessId(i)});
    h2[static_cast<std::size_t>(i)].record(60, ProcSet{});
  }
  EXPECT_TRUE(check_limited_scope_accuracy(h2, fp, 3, kHorizon, false).pass);
  EXPECT_FALSE(check_limited_scope_accuracy(h2, fp, 3, kHorizon, true).pass);
}

TEST(Checkers, LeadershipFailsOnOversizedOutput) {
  auto fp = make_pattern(4, 1, {});
  SetHistory h(4);
  for (int i = 0; i < 4; ++i) {
    h[static_cast<std::size_t>(i)].record(0, ProcSet{0, 1, 2});
  }
  EXPECT_FALSE(check_eventual_leadership(h, fp, 2, kHorizon).pass);
  EXPECT_TRUE(check_eventual_leadership(h, fp, 3, kHorizon).pass);
}

TEST(Checkers, LeadershipFailsOnDisagreeingFinalSets) {
  auto fp = make_pattern(4, 1, {});
  SetHistory h(4);
  h[0].record(0, ProcSet{0});
  h[1].record(0, ProcSet{1});
  h[2].record(0, ProcSet{0});
  h[3].record(0, ProcSet{0});
  EXPECT_FALSE(check_eventual_leadership(h, fp, 1, kHorizon).pass);
}

TEST(Checkers, LeadershipFailsWhenEventualSetAllFaulty) {
  auto fp = make_pattern(4, 1, {{3, 20}});
  SetHistory h(4);
  for (int i = 0; i < 4; ++i) {
    h[static_cast<std::size_t>(i)].record(0, ProcSet{3});
  }
  EXPECT_FALSE(check_eventual_leadership(h, fp, 1, kHorizon).pass);
}

TEST(Checkers, SuspectFreeFromIgnoresPostCrashValues) {
  util::StepTrace<ProcSet> tr{ProcSet{}};
  tr.record(10, ProcSet{5});   // starts suspecting p5 at 10...
  // ...and never stops, but the observer crashes at 40.
  EXPECT_EQ(suspect_free_from(tr, 5, /*crash_time=*/40, kHorizon), 40);
  EXPECT_EQ(suspect_free_from(tr, 5, kNeverTime, kHorizon), kNeverTime);
  EXPECT_EQ(suspect_free_from(tr, 6, kNeverTime, kHorizon), 0);
}

TEST(EmulatedStores, RecordAndServeCurrentValues) {
  EmulatedLeaderStore store(3);
  store.set(1, 10, ProcSet{2});
  EXPECT_EQ(store.trusted(1, 999), ProcSet{2});
  EXPECT_EQ(store.trusted(0, 999), ProcSet{});
  EXPECT_EQ(store.trace(1).at(9), ProcSet{});
  EXPECT_EQ(store.trace(1).at(10), ProcSet{2});

  EmulatedReprStore repr(3);
  EXPECT_EQ(repr.get(2), 2);  // initialized to own id
}

}  // namespace
}  // namespace saf::fd
