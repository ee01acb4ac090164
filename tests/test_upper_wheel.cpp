// Standalone upper-wheel tests (Fig 6) with a *synthetic* representative
// source instead of a live lower wheel — isolating the component lets us
// pin exactly which repr patterns make the wheel stop where.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/upper_wheel.h"
#include "fd/checkers.h"
#include "fd/query_oracles.h"
#include "sim/delay_policy.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace saf::core {
namespace {

/// Hosts only an upper wheel; repr values come from a fixed vector
/// (what a *stabilized* lower wheel would serve).
class UpperOnlyProcess final : public sim::Process {
 public:
  UpperOnlyProcess(ProcessId id, int n, int t,
                   const util::SubsetPairRing& ring,
                   const fd::QueryOracle& phi,
                   const std::vector<ProcessId>& reprs,
                   fd::EmulatedLeaderStore& store)
      : Process(id, n, t),
        upper_(*this, ring, phi,
               [&reprs, id] { return reprs[static_cast<std::size_t>(id)]; },
               store, /*inquiry_period=*/6) {}

  void boot() override { spawn(upper_.main()); }
  void on_tick() override { upper_.tick(); }
  void on_message(const sim::Message& m) override { upper_.on_message(m); }
  void on_rdeliver(const sim::Message& m) override { upper_.on_rdeliver(m); }

  const UpperWheelComponent& upper() const { return upper_; }

 private:
  UpperWheelComponent upper_;
};

struct World {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<fd::PhiOracle> phi;
  std::unique_ptr<util::SubsetPairRing> ring;
  std::unique_ptr<fd::EmulatedLeaderStore> store;
  std::vector<UpperOnlyProcess*> procs;
};

World make_world(int n, int t, int y, int z,
                 const std::vector<ProcessId>& reprs,
                 sim::CrashPlan plan, std::uint64_t seed,
                 Time horizon = 20'000) {
  World w;
  sim::SimConfig sc;
  sc.n = n;
  sc.t = t;
  sc.seed = seed;
  sc.horizon = horizon;
  w.sim = std::make_unique<sim::Simulator>(
      sc, std::move(plan), std::make_unique<sim::UniformDelay>(1, 8));
  fd::QueryOracleParams qp;
  qp.stab_time = 150;
  qp.detect_delay = 10;
  qp.seed = seed;
  w.phi = std::make_unique<fd::PhiOracle>(w.sim->pattern(), y, qp);
  w.ring = std::make_unique<util::SubsetPairRing>(n, t - y + 1, z);
  w.store = std::make_unique<fd::EmulatedLeaderStore>(n);
  for (ProcessId i = 0; i < n; ++i) {
    auto p = std::make_unique<UpperOnlyProcess>(i, n, t, *w.ring, *w.phi,
                                                reprs, *w.store);
    w.procs.push_back(p.get());
    w.sim->add_process(std::move(p));
  }
  return w;
}

TEST(UpperWheelStandalone, SelfRepresentativesConvergeToSomeAliveSet) {
  // Everyone represents itself (what the lower wheel serves outside its
  // stable set): the wheel must still settle on an Ω_z-legal output.
  const int n = 6, t = 2, y = 1, z = 2;
  std::vector<ProcessId> reprs{0, 1, 2, 3, 4, 5};
  auto w = make_world(n, t, y, z, reprs, {}, 3);
  w.sim->run();
  const auto check = fd::check_eventual_leadership(
      w.store->traces(), w.sim->pattern(), z, w.sim->horizon());
  EXPECT_TRUE(check.pass) << check.detail;
}

TEST(UpperWheelStandalone, SharedRepresentativeAnchorsTheLeaderSet) {
  // Processes {0,1,2} all point at p1 (a stabilized lower wheel with
  // X = {0,1,2}, leader 1); the wheel must stop at a position whose L
  // contains p1, and the emitted set must contain p1.
  const int n = 6, t = 2, y = 1, z = 2;
  std::vector<ProcessId> reprs{1, 1, 1, 3, 4, 5};
  auto w = make_world(n, t, y, z, reprs, {}, 5);
  w.sim->run();
  const auto check = fd::check_eventual_leadership(
      w.store->traces(), w.sim->pattern(), z, w.sim->horizon());
  EXPECT_TRUE(check.pass) << check.detail;
  EXPECT_TRUE(w.store->get(0).contains(1))
      << "eventual set " << w.store->get(0).to_string()
      << " missed the anchored representative";
  // All cursors agree (Lemma 7 analogue).
  for (const auto* p : w.procs) {
    EXPECT_EQ(p->upper().cursor(), w.procs[0]->upper().cursor());
  }
}

TEST(UpperWheelStandalone, FullyCrashedQueryRegionTriggersCaseA) {
  // Crash t-y+1 = 2 processes {0,1}: the ring's first Y = {0,1} region
  // is then entirely dead; outputs from Case A must be singleton alive
  // processes and the Ω check must still pass.
  const int n = 6, t = 2, y = 1, z = 2;
  std::vector<ProcessId> reprs{0, 1, 2, 3, 4, 5};
  sim::CrashPlan plan;
  plan.crash_at(0, 100).crash_at(1, 160);
  auto w = make_world(n, t, y, z, reprs, std::move(plan), 7);
  w.sim->run();
  const auto check = fd::check_eventual_leadership(
      w.store->traces(), w.sim->pattern(), z, w.sim->horizon());
  EXPECT_TRUE(check.pass) << check.detail;
  const ProcSet correct = w.sim->pattern().correct_at_end(w.sim->horizon());
  EXPECT_TRUE(w.store->get(2).subset_of(correct) ||
              w.store->get(2).intersects(correct));
}

TEST(UpperWheelStandalone, ResponsesNamingNoProcessAreIgnored) {
  // A decoded ResponseMsg may carry ids up to kMaxProcs; one whose
  // sender or repr names no process of the run must leave the wheel's
  // state untouched, whatever attempt it claims.
  const int n = 6, t = 2, y = 1, z = 2;
  std::vector<ProcessId> reprs{0, 1, 2, 3, 4, 5};
  auto w = make_world(n, t, y, z, reprs, {}, 3);
  w.sim->pump(300);
  UpperOnlyProcess& p = *w.procs[2];
  sim::StateDigest before;
  p.upper().state_digest(before);
  for (std::uint64_t attempt = 0; attempt < 1000; ++attempt) {
    for (const auto& [sender, repr] :
         {std::pair{0, n}, std::pair{0, kMaxProcs - 1},
          std::pair{n, 0}, std::pair{kMaxProcs - 1, 1}}) {
      ResponseMsg forged(attempt, repr);
      forged.sender = sender;
      p.on_message(forged);
    }
  }
  sim::StateDigest after;
  p.upper().state_digest(after);
  EXPECT_EQ(before.value(), after.value());
}

TEST(UpperWheelStandalone, RejectsBadInquiryPeriod) {
  const int n = 4, t = 1, y = 1, z = 1;
  sim::SimConfig sc;
  sc.n = n;
  sc.t = t;
  sim::Simulator sim(sc, {}, std::make_unique<sim::FixedDelay>(2));
  fd::PhiOracle phi(sim.pattern(), y, {});
  util::SubsetPairRing ring(n, t - y + 1, z);
  fd::EmulatedLeaderStore store(n);
  std::vector<ProcessId> reprs{0, 1, 2, 3};
  class Host final : public sim::Process {
   public:
    using Process::Process;
  };
  Host host(0, n, t);
  EXPECT_THROW(UpperWheelComponent(host, ring, phi, [] { return 0; }, store,
                                   /*inquiry_period=*/0),
               std::invalid_argument);
}

}  // namespace
}  // namespace saf::core
