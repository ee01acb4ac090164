// Tests for Appendix B: the shared-memory addition S_x + φ_y → S (and the
// eventual variant), possible iff x + y > t.
#include <gtest/gtest.h>

#include "core/add_sx_phiy.h"
#include "param_print.h"

namespace saf::core {
namespace {

AdditionConfig base(int n, int t, int x, int y, bool perpetual,
                    std::uint64_t seed) {
  AdditionConfig c;
  c.n = n;
  c.t = t;
  c.x = x;
  c.y = y;
  c.perpetual = perpetual;
  c.seed = seed;
  return c;
}

TEST(Addition, PerpetualVariantYieldsS) {
  auto c = base(6, 3, 2, 2, /*perpetual=*/true, 3);  // x+y = 4 > t = 3
  c.crashes.crash_at(1, 200);
  auto r = run_addition(c);
  EXPECT_TRUE(r.completeness.pass) << r.completeness.detail;
  EXPECT_TRUE(r.accuracy.pass) << r.accuracy.detail;
  EXPECT_EQ(r.accuracy.witness, 0);  // perpetual: from the very beginning
  EXPECT_GT(r.min_scans, 10u);
}

TEST(Addition, EventualVariantYieldsDiamondS) {
  auto c = base(6, 3, 2, 2, /*perpetual=*/false, 5);
  c.crashes.crash_at(0, 150).crash_at(4, 600);
  auto r = run_addition(c);
  EXPECT_TRUE(r.completeness.pass) << r.completeness.detail;
  EXPECT_TRUE(r.accuracy.pass) << r.accuracy.detail;
}

TEST(Addition, SurvivesMaximalCrashes) {
  auto c = base(7, 3, 3, 1, false, 7);  // x+y = 4 > 3
  c.crashes.crash_at(0, 100).crash_at(2, 300).crash_at(5, 500);
  auto r = run_addition(c);
  EXPECT_TRUE(r.completeness.pass) << r.completeness.detail;
  EXPECT_TRUE(r.accuracy.pass) << r.accuracy.detail;
}

TEST(Addition, RegistersAreExercised) {
  auto r = run_addition(base(5, 2, 2, 1, true, 9));
  EXPECT_GT(r.register_reads, 1000u);
  EXPECT_GT(r.register_writes, 1000u);
}

struct AddParam {
  int n, t, x, y;
  bool perpetual;
};

void PrintTo(const AddParam& p, std::ostream* os) {
  test::print_zero_padded(p, os, &AddParam::n, &AddParam::t, &AddParam::x,
                          &AddParam::y, &AddParam::perpetual);
}

class AdditionSweep : public ::testing::TestWithParam<AddParam> {};

TEST_P(AdditionSweep, BoundaryConfigurationsYieldFullScope) {
  const auto p = GetParam();
  ASSERT_GT(p.x + p.y, p.t) << "sweep must stay above the bound";
  auto c = base(p.n, p.t, p.x, p.y, p.perpetual, 11);
  c.crashes.crash_at(p.n - 1, 120);
  auto r = run_addition(c);
  EXPECT_TRUE(r.completeness.pass) << r.completeness.detail;
  EXPECT_TRUE(r.accuracy.pass) << r.accuracy.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdditionSweep,
    ::testing::Values(AddParam{5, 2, 1, 2, true},   // x+y = t+1 exactly
                      AddParam{5, 2, 2, 1, false},
                      AddParam{6, 2, 3, 0, true},   // φ_0: x alone > t
                      AddParam{7, 3, 2, 2, true},
                      AddParam{7, 3, 4, 0, false},
                      AddParam{8, 3, 1, 3, false}));  // φ does all the work

TEST(Addition, RejectsBadParameters) {
  EXPECT_THROW(run_addition(base(5, 0, 2, 1, true, 1)),
               std::invalid_argument);
  EXPECT_THROW(run_addition(base(5, 2, 0, 1, true, 1)),
               std::invalid_argument);
  EXPECT_THROW(run_addition(base(5, 2, 2, 3, true, 1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace saf::core
