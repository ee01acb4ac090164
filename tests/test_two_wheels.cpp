// Tests for the two-wheels addition ◇S_x + ◇φ_y → Ω_z (paper §4):
// the lower wheel's Theorem 3 property, the upper wheel's Ω_z property,
// quiescence of x_move traffic (Corollary 1), and the degenerate cases
// y = 0 (pure ◇S_x → Ω_{t+2-x}) and x = 1 (pure ◇φ_y → Ω_{t+1-y}).
#include <gtest/gtest.h>

#include "core/two_wheels.h"
#include "core/irreducibility.h"
#include "fd/emulated.h"
#include "fd/suspect_oracles.h"
#include "core/lower_wheel.h"
#include "sim/delay_policy.h"
#include "sim/network.h"
#include "param_print.h"

namespace saf::core {
namespace {

TwoWheelsConfig base(int n, int t, int x, int y, std::uint64_t seed) {
  TwoWheelsConfig c;
  c.n = n;
  c.t = t;
  c.x = x;
  c.y = y;
  c.seed = seed;
  return c;
}

void expect_success(const TwoWheelsResult& r) {
  EXPECT_TRUE(r.repr_check.pass) << r.repr_check.detail;
  EXPECT_TRUE(r.omega_check.pass) << r.omega_check.detail;
}

TEST(TwoWheels, FailureFreeDiagonalPoint) {
  // n=5, t=2, x=2, y=1 -> z = 1: full consensus-grade Ω from the addition.
  auto r = run_two_wheels(base(5, 2, 2, 1, 3));
  EXPECT_EQ(r.z, 1);
  expect_success(r);
}

TEST(TwoWheels, WithCrashes) {
  auto c = base(6, 3, 2, 1, 7);  // z = 2
  c.crashes.crash_at(0, 150).crash_at(4, 400);
  auto r = run_two_wheels(c);
  EXPECT_EQ(r.z, 2);
  expect_success(r);
}

TEST(TwoWheels, MotivatingExample_StPlusPhi1GivesOmega1) {
  // The paper's introduction: ◇S_t + ◇φ_1 -> Ω_1 (consensus power),
  // although neither class alone suffices.
  const int n = 6, t = 3;
  auto c = base(n, t, /*x=*/t, /*y=*/1, 13);
  c.crashes.crash_at(1, 200);
  auto r = run_two_wheels(c);
  EXPECT_EQ(r.z, 1);
  expect_success(r);
  EXPECT_EQ(r.final_trusted.size(), 1);
}

TEST(TwoWheels, DegenerateY0_IsPureDiamondSxReduction) {
  // Corollary 7: ◇S_x alone yields Ω_{t+2-x} (here x=3, t=3 -> z=2).
  auto c = base(7, 3, 3, 0, 17);
  c.crashes.crash_at(2, 100);
  auto r = run_two_wheels(c);
  EXPECT_EQ(r.z, 2);
  expect_success(r);
}

TEST(TwoWheels, DegenerateX1_IsPurePhiYReduction) {
  // Corollary 6: ◇φ_y alone yields Ω_{t+1-y} (here y=2, t=3 -> z=2).
  auto c = base(7, 3, 1, 2, 19);
  c.crashes.crash_at(5, 250);
  auto r = run_two_wheels(c);
  EXPECT_EQ(r.z, 2);
  expect_success(r);
}

TEST(TwoWheels, LowerWheelIsQuiescent) {
  // Corollary 1: eventually no x_move traffic at all.
  auto c = base(5, 2, 2, 1, 23);
  c.crashes.crash_at(1, 120);
  auto r = run_two_wheels(c);
  expect_success(r);
  ASSERT_GT(r.x_move_count, 0u);  // the wheel did turn before settling
  EXPECT_LT(r.last_x_move, c.horizon / 2)
      << "x_move traffic survived deep into the run";
  // l_move traffic also ceases (the wheel synchronizes)...
  EXPECT_LT(r.last_l_move, c.horizon / 2);
  // ...but inquiries continue forever (the Remark in §4.2.2).
  EXPECT_GT(r.inquiry_count, 100u);
}

TEST(TwoWheels, SurvivesMidBroadcastCrashOfAMovingProcess) {
  // A process dies halfway through R-broadcasting an x_move/l_move; the
  // echo-forwarding RB keeps the move-multiset consistent, so cursors
  // and the Ω property must still converge.
  auto c = base(6, 3, 2, 1, 43);
  c.crashes.crash_after_sends(0, 8);
  c.crashes.crash_after_sends(3, 40);
  auto r = run_two_wheels(c);
  expect_success(r);
}

TEST(TwoWheels, HistoriesAreExposedForExport) {
  auto r = run_two_wheels(base(5, 2, 2, 1, 47));
  ASSERT_EQ(r.repr_history.size(), 5u);
  ASSERT_EQ(r.trusted_history.size(), 5u);
  // The trusted history carries real steps (the wheel published output).
  bool any_steps = false;
  for (const auto& tr : r.trusted_history) {
    any_steps |= !tr.steps().empty();
  }
  EXPECT_TRUE(any_steps);
}

TEST(TwoWheels, EntireScopeSetCrashes) {
  // Force every process of some x-subsets to crash: the lower wheel must
  // skip fully-crashed candidate sets and still stabilize.
  auto c = base(5, 2, 2, 1, 29);
  c.crashes.crash_at(0, 60).crash_at(1, 60);
  auto r = run_two_wheels(c);
  expect_success(r);
}

struct DiagonalParam {
  int n, t, x, y;
  std::uint64_t seed;
  int crashes;
};

void PrintTo(const DiagonalParam& p, std::ostream* os) {
  test::print_zero_padded(p, os, &DiagonalParam::n, &DiagonalParam::t,
                          &DiagonalParam::x, &DiagonalParam::y,
                          &DiagonalParam::seed, &DiagonalParam::crashes);
}

class TwoWheelsDiagonal : public ::testing::TestWithParam<DiagonalParam> {};

TEST_P(TwoWheelsDiagonal, AdditionHoldsOnTheBoundary) {
  const auto p = GetParam();
  auto c = base(p.n, p.t, p.x, p.y, p.seed);
  for (int i = 0; i < p.crashes; ++i) {
    c.crashes.crash_at((2 * i + 1) % p.n, 80 * (i + 1));
  }
  auto r = run_two_wheels(c);
  EXPECT_EQ(r.z, p.t + 2 - p.x - p.y);
  expect_success(r);
}

std::vector<DiagonalParam> diagonal_params() {
  std::vector<DiagonalParam> out;
  // Full diagonal x + y + z = t + 2 for (n=6, t=3) and (n=7, t=3).
  for (int n : {6, 7}) {
    const int t = 3;
    for (int x = 1; x <= t + 1; ++x) {
      for (int y = 0; y <= t; ++y) {
        const int z = t + 2 - x - y;
        if (z < 1 || z > t - y + 1) continue;
        out.push_back({n, t, x, y, 4242 + static_cast<std::uint64_t>(n), 1});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Diagonal, TwoWheelsDiagonal,
                         ::testing::ValuesIn(diagonal_params()));

TEST(TwoWheels, RejectsInvalidParameters) {
  EXPECT_THROW(run_two_wheels(base(5, 2, 0, 1, 1)), std::invalid_argument);
  EXPECT_THROW(run_two_wheels(base(5, 2, 2, 3, 1)), std::invalid_argument);
  auto c = base(5, 2, 3, 2, 1);  // z = -1
  EXPECT_THROW(run_two_wheels(c), std::invalid_argument);
}

// --- Standalone lower wheel -------------------------------------------

TEST(LowerWheel, StandaloneSatisfiesTheorem3) {
  const int n = 5, t = 2, x = 2;
  sim::SimConfig sc;
  sc.n = n;
  sc.t = t;
  sc.seed = 31;
  sc.horizon = 20'000;
  sim::CrashPlan plan;
  plan.crash_at(3, 100);
  sim::Simulator sim(sc, plan, std::make_unique<sim::UniformDelay>(1, 8));

  fd::SuspectOracleParams sp;
  sp.stab_time = 300;
  sp.noise_prob = 0.05;
  fd::LimitedScopeSuspectOracle sx(sim.pattern(), x, sp);
  util::MemberRing ring(n, x);
  fd::EmulatedReprStore store(n);
  for (ProcessId i = 0; i < n; ++i) {
    sim.add_process(std::make_unique<LowerWheelProcess>(i, n, t, ring, sx,
                                                        store));
  }
  sim.run();
  const auto res =
      fd::check_lower_wheel_property(store.traces(), sim.pattern(), x,
                                     sc.horizon);
  EXPECT_TRUE(res.pass) << res.detail;
  // Quiescence: x_move traffic stops well before the horizon.
  EXPECT_LT(sim.network().last_send_time("x_move"), sc.horizon / 2);
}

TEST(LowerWheel, CursorsOfCorrectProcessesConverge) {
  // The R-broadcast multiset is consumed in the same ring order by
  // everyone (Lemma 6): final cursors of correct processes must agree.
  const int n = 6, t = 2, x = 2;
  sim::SimConfig sc;
  sc.n = n;
  sc.t = t;
  sc.seed = 41;
  sc.horizon = 20'000;
  sim::CrashPlan plan;
  plan.crash_at(2, 150);
  sim::Simulator sim(sc, plan, std::make_unique<sim::UniformDelay>(1, 10));
  fd::SuspectOracleParams sp;
  sp.stab_time = 300;
  sp.noise_prob = 0.1;
  fd::LimitedScopeSuspectOracle sx(sim.pattern(), x, sp);
  util::MemberRing ring(n, x);
  fd::EmulatedReprStore store(n);
  std::vector<const LowerWheelProcess*> procs;
  for (ProcessId i = 0; i < n; ++i) {
    auto p = std::make_unique<LowerWheelProcess>(i, n, t, ring, sx, store);
    procs.push_back(p.get());
    sim.add_process(std::move(p));
  }
  sim.run();
  std::size_t ref_cursor = ring.size();
  for (const auto* p : procs) {
    if (sim.pattern().crash_time(p->id()) != kNeverTime) continue;
    if (ref_cursor == ring.size()) {
      ref_cursor = p->component().cursor();
    } else {
      EXPECT_EQ(p->component().cursor(), ref_cursor)
          << "cursor divergence at p" << p->id();
    }
  }
}

TEST(LowerWheel, AllProcessesOutsideStableSetRepresentThemselves) {
  const int n = 4, t = 1, x = 1;
  sim::SimConfig sc;
  sc.n = n;
  sc.t = t;
  sc.seed = 37;
  sc.horizon = 10'000;
  sim::Simulator sim(sc, {}, std::make_unique<sim::FixedDelay>(3));
  fd::SuspectOracleParams sp;
  sp.stab_time = 0;
  fd::LimitedScopeSuspectOracle sx(sim.pattern(), x, sp);
  util::MemberRing ring(n, x);
  fd::EmulatedReprStore store(n);
  for (ProcessId i = 0; i < n; ++i) {
    sim.add_process(std::make_unique<LowerWheelProcess>(i, n, t, ring, sx,
                                                        store));
  }
  sim.run();
  // x = 1: the stable set is a singleton whose member represents itself;
  // everyone ends up with repr_i = i.
  for (ProcessId i = 0; i < n; ++i) {
    EXPECT_EQ(store.get(i), i);
  }
}

TEST(LowerWheel, AdversarialOracleForcesConvergenceExactlyToItsScope) {
  // Under a maximally-suspecting (yet legal) S_x, the ONLY ring position
  // that can be stable in a crash-free run is (safe_leader, scope):
  // every other position has a member suspecting the candidate forever.
  // This pins the wheel's final state deterministically.
  const int n = 5, t = 2, x = 2;
  sim::SimConfig sc;
  sc.n = n;
  sc.t = t;
  sc.seed = 59;
  sc.horizon = 60'000;  // worst case: nearly a full lap of the ring
  sim::Simulator sim(sc, {}, std::make_unique<sim::UniformDelay>(1, 6));
  core::AdversarialSx sx(sim.pattern(), x, /*stab_time=*/0, 61);
  util::MemberRing ring(n, x);
  fd::EmulatedReprStore store(n);
  std::vector<const LowerWheelProcess*> procs;
  for (ProcessId i = 0; i < n; ++i) {
    auto p = std::make_unique<LowerWheelProcess>(i, n, t, ring, sx, store);
    procs.push_back(p.get());
    sim.add_process(std::move(p));
  }
  sim.run();
  // Every scope member ends pointing at the safe leader; everyone else
  // at itself.
  for (ProcessId i = 0; i < n; ++i) {
    if (sx.scope().contains(i)) {
      EXPECT_EQ(store.get(i), sx.safe_leader()) << "scope member p" << i;
    } else {
      EXPECT_EQ(store.get(i), i) << "outside p" << i;
    }
  }
  // And the cursors sit exactly on (safe_leader, scope).
  const std::size_t expect = ring.find(sx.safe_leader(), sx.scope());
  ASSERT_LT(expect, ring.size());
  for (const auto* p : procs) {
    EXPECT_EQ(p->component().cursor(), expect);
  }
}

}  // namespace
}  // namespace saf::core
