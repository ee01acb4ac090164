// Tests for the message-passing translation of Appendix B
// (core/add_sx_phiy_mp.h), plus the Theorem 11 witness demo.
#include <gtest/gtest.h>

#include "core/add_sx_phiy_mp.h"
#include "core/irreducibility.h"
#include "param_print.h"

namespace saf::core {
namespace {

AdditionMpConfig base(int n, int t, int x, int y, bool perpetual,
                      std::uint64_t seed) {
  AdditionMpConfig c;
  c.n = n;
  c.t = t;
  c.x = x;
  c.y = y;
  c.perpetual = perpetual;
  c.seed = seed;
  return c;
}

TEST(AdditionMp, PerpetualVariantYieldsS) {
  auto c = base(6, 3, 2, 2, true, 3);
  c.crashes.crash_at(1, 200);
  auto r = run_addition_mp(c);
  EXPECT_TRUE(r.completeness.pass) << r.completeness.detail;
  EXPECT_TRUE(r.accuracy.pass) << r.accuracy.detail;
  EXPECT_EQ(r.accuracy.witness, 0);
  EXPECT_GT(r.min_scans, 10u);
  EXPECT_GT(r.heartbeats, 1000u);
}

TEST(AdditionMp, EventualVariantYieldsDiamondS) {
  auto c = base(6, 3, 2, 2, false, 5);
  c.crashes.crash_at(0, 150).crash_at(4, 600);
  auto r = run_addition_mp(c);
  EXPECT_TRUE(r.completeness.pass) << r.completeness.detail;
  EXPECT_TRUE(r.accuracy.pass) << r.accuracy.detail;
}

TEST(AdditionMp, ToleratesMaximalCrashesIncludingMidBroadcast) {
  auto c = base(7, 3, 3, 1, false, 7);
  c.crashes.crash_at(0, 100).crash_after_sends(2, 50).crash_at(5, 500);
  auto r = run_addition_mp(c);
  EXPECT_TRUE(r.completeness.pass) << r.completeness.detail;
  EXPECT_TRUE(r.accuracy.pass) << r.accuracy.detail;
}

TEST(AdditionMp, NoMajorityRequirement) {
  // t = n - 1: far beyond any quorum bound; the translation must still
  // work (the paper: "without adding any requirement on t").
  auto c = base(5, 4, 3, 2, false, 9);
  c.crashes.crash_at(0, 80).crash_at(1, 160).crash_at(2, 240).crash_at(3, 320);
  auto r = run_addition_mp(c);
  EXPECT_TRUE(r.completeness.pass) << r.completeness.detail;
  EXPECT_TRUE(r.accuracy.pass) << r.accuracy.detail;
}

struct MpParam {
  int n, t, x, y;
  bool perpetual;
};

void PrintTo(const MpParam& p, std::ostream* os) {
  test::print_zero_padded(p, os, &MpParam::n, &MpParam::t, &MpParam::x,
                          &MpParam::y, &MpParam::perpetual);
}

class AdditionMpSweep : public ::testing::TestWithParam<MpParam> {};

TEST_P(AdditionMpSweep, AboveBoundConfigsYieldFullScope) {
  const auto p = GetParam();
  ASSERT_GT(p.x + p.y, p.t);
  auto c = base(p.n, p.t, p.x, p.y, p.perpetual, 21);
  c.crashes.crash_at(p.n - 1, 130);
  auto r = run_addition_mp(c);
  EXPECT_TRUE(r.completeness.pass) << r.completeness.detail;
  EXPECT_TRUE(r.accuracy.pass) << r.accuracy.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdditionMpSweep,
    ::testing::Values(MpParam{5, 2, 1, 2, true}, MpParam{5, 2, 2, 1, false},
                      MpParam{7, 3, 2, 2, true}, MpParam{7, 3, 4, 0, false},
                      MpParam{8, 3, 1, 3, false}));

// --- Theorem 11 ------------------------------------------------------------

TEST(Irreducibility, OmegaCannotYieldPhi_Theorem11Witness) {
  const auto demo = demo_omega_to_phi(/*n=*/7, /*t=*/3, /*y=*/1, /*z=*/1,
                                      /*seed=*/5, /*horizon=*/4000);
  EXPECT_TRUE(demo.source_legal.pass) << demo.source_legal.detail;
  EXPECT_FALSE(demo.eager_check.pass)
      << "eager emulation should violate eventual safety";
  EXPECT_FALSE(demo.conservative_check.pass)
      << "conservative emulation should violate liveness";
  // And the failures are the *expected* ones.
  EXPECT_NE(demo.eager_check.detail.find("safety"), std::string::npos)
      << demo.eager_check.detail;
  EXPECT_NE(demo.conservative_check.detail.find("liveness"),
            std::string::npos)
      << demo.conservative_check.detail;
}

}  // namespace
}  // namespace saf::core
