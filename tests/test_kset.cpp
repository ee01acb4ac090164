// Tests for the Ω_k-based k-set agreement protocol (Fig 3).
#include <gtest/gtest.h>

#include "core/kset_agreement.h"
#include "param_print.h"

namespace saf::core {
namespace {

KSetRunConfig base(int n, int t, int k, int z, std::uint64_t seed) {
  KSetRunConfig c;
  c.n = n;
  c.t = t;
  c.k = k;
  c.z = z;
  c.seed = seed;
  return c;
}

void expect_safe_and_live(const KSetRunResult& r, int k) {
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.validity);
  EXPECT_LE(r.distinct_decided, k);
  EXPECT_GE(r.distinct_decided, 1);
}

TEST(KSet, FailureFreeRunDecides) {
  auto r = run_kset_agreement(base(7, 3, 2, 2, 11));
  expect_safe_and_live(r, 2);
}

TEST(KSet, ConsensusViaOmega1) {
  auto r = run_kset_agreement(base(5, 2, 1, 1, 5));
  expect_safe_and_live(r, 1);
}

TEST(KSet, ToleratesMaximalCrashes) {
  auto c = base(9, 4, 3, 3, 17);
  c.crashes.crash_at(1, 30).crash_at(4, 120).crash_at(6, 5).crash_at(8, 900);
  auto r = run_kset_agreement(c);
  expect_safe_and_live(r, 3);
}

TEST(KSet, CrashMidBroadcastDoesNotBlockDecision) {
  auto c = base(7, 3, 2, 2, 23);
  c.crashes.crash_after_sends(2, 10).crash_after_sends(5, 25);
  auto r = run_kset_agreement(c);
  expect_safe_and_live(r, 2);
}

TEST(KSet, ZeroDegradation_PerfectOracleInitialCrashesOneRound) {
  // §3.2: perfect Ω_k + only initial crashes => decide in round 1.
  auto c = base(7, 3, 2, 2, 31);
  c.perfect_oracle = true;
  c.delay_min = c.delay_max = 5;  // lockstep steps to count rounds cleanly
  c.crashes.crash_at(3, 0).crash_at(6, 0);
  auto r = run_kset_agreement(c);
  expect_safe_and_live(r, 2);
  EXPECT_EQ(r.max_round, 1);
}

TEST(KSet, OracleEfficiency_PerfectOracleNoCrashOneRound) {
  auto c = base(7, 3, 2, 2, 37);
  c.perfect_oracle = true;
  auto r = run_kset_agreement(c);
  expect_safe_and_live(r, 2);
  EXPECT_EQ(r.max_round, 1);
}

TEST(KSet, LateOracleStabilizationStillTerminates) {
  auto c = base(7, 3, 2, 2, 41);
  c.omega_stab = 3000;
  auto r = run_kset_agreement(c);
  expect_safe_and_live(r, 2);
}

// Sweep: safety holds across n/t/k/z/seeds with crashes.
struct SweepParam {
  int n, t, k, z;
  std::uint64_t seed;
  int crashes;
};

void PrintTo(const SweepParam& p, std::ostream* os) {
  test::print_zero_padded(p, os, &SweepParam::n, &SweepParam::t,
                          &SweepParam::k, &SweepParam::z, &SweepParam::seed,
                          &SweepParam::crashes);
}

class KSetSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(KSetSweep, SafeAndLive) {
  const SweepParam p = GetParam();
  auto c = base(p.n, p.t, p.k, p.z, p.seed);
  for (int i = 0; i < p.crashes; ++i) {
    c.crashes.crash_at((i * 2 + 1) % p.n, 40 * (i + 1));
  }
  auto r = run_kset_agreement(c);
  expect_safe_and_live(r, p.k);
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  const struct { int n, t; } shapes[] = {{5, 2}, {7, 3}, {9, 4}, {11, 5}};
  for (const auto& s : shapes) {
    for (int k = 1; k <= s.t; k += 2) {
      for (std::uint64_t seed : {1ull, 2ull}) {
        out.push_back({s.n, s.t, k, k, seed, s.t - 1});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, KSetSweep, ::testing::ValuesIn(sweep_params()));

TEST(KSet, RejectsBadConfig) {
  EXPECT_THROW(run_kset_agreement(base(7, 0, 2, 2, 1)), std::invalid_argument);
  EXPECT_THROW(run_kset_agreement(base(7, 3, 2, 0, 1)), std::invalid_argument);
}

}  // namespace
}  // namespace saf::core
