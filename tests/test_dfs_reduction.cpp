// Differential equivalence tests for the reduced exhaustive DFS
// checker (check/dfs.h) plus property tests of its two building
// blocks, the symmetry canonicalizer (util/permutation.h) and the
// state digest (sim/state_digest.h).
//
// The contract under test: every reduction — state hashing, symmetry
// canonicalization, persistent-set POR — and every combination of them
// must report the SAME violation verdict and the SAME set of distinct
// terminal decision vectors as the brute-force search, while exploring
// no more runs. A reduction that changed either would be unsound, not
// fast.
//
// Depth calibration: the persistent-set reduction is compared at race
// depths >= 3 on the order-sensitive kset fixtures. At depth 2 the
// bounded search spends its whole choice budget inside the ample
// receiver's orderings, so POR reaches fewer distinct decision sets
// than brute at the SAME depth — a depth-truncation artifact of
// persistent sets under a bounded horizon (the deferred dispatches are
// explored, but one level deeper than the budget allows), not an
// unsoundness. From depth 3 on, the kset fixtures' decision sets match
// brute exactly. See docs/exhaustive_checking.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "check/dfs.h"
#include "check/protocols.h"
#include "fd/checkers.h"
#include "fd/omega_oracle.h"
#include "sim/delay_policy.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "sim/state_digest.h"
#include "util/permutation.h"
#include "util/rng.h"

namespace saf::check {
namespace {

// --- fixtures ----------------------------------------------------------

/// n=3 k-set instance: small enough that race-mode brute force is cheap
/// at every depth we probe.
const Protocol& kset_tiny() {
  static const Protocol* p = [] {
    KSetProtocolSpec spec;
    spec.name = "dfsred-kset-tiny";
    spec.n = 3;
    spec.t = 1;
    spec.k = 1;
    spec.horizon = 6'000;
    register_protocol(make_kset_protocol(spec));
    return find_protocol("dfsred-kset-tiny");
  }();
  return *p;
}

/// The order-sensitive fixture: a perfect forced-{0} oracle widened by
/// one extra leader, with distinct proposals. Different dispatch orders
/// genuinely decide different values ({100} vs {101}), so decision-set
/// equality across reductions is a real differential signal, not a
/// vacuous one.
const Protocol& kset_widened() {
  static const Protocol* p = [] {
    KSetProtocolSpec spec;
    spec.name = "dfsred-kset-widened";
    spec.n = 4;
    spec.t = 1;
    spec.k = 1;
    spec.horizon = 8'000;
    spec.perfect_oracle = true;
    spec.forced_final_set = ProcSet{0};
    spec.widen_oracle = true;
    register_protocol(make_kset_protocol(spec));
    return find_protocol("dfsred-kset-widened");
  }();
  return *p;
}

// The seeded injected bug (same shape as the explorer suite's
// buggy-omega: an Omega_z oracle widened to z+1 leaders, which the
// leader-oracle invariant must flag), registered here with
// RunContext::on_simulator threaded so the dispatch-order DFS and the
// digest seam work against it.

struct TickMsg final : sim::Message {
  std::string_view tag() const override { return "tick"; }
};

class ChatterProcess final : public sim::Process {
 public:
  ChatterProcess(ProcessId id, int n, int t) : Process(id, n, t) {}
  sim::ProtocolTask run() override {
    while (true) {
      broadcast_msg(TickMsg{});
      co_await sleep_for(200);
    }
  }
};

class WidenedOmega final : public fd::LeaderOracle {
 public:
  explicit WidenedOmega(const fd::OmegaZOracle& inner) : inner_(inner) {}
  ProcSet trusted(ProcessId i, Time now) const override {
    ProcSet s = inner_.trusted(i, now);
    for (ProcessId extra = 0;; ++extra) {
      if (!s.contains(extra)) {
        s.insert(extra);
        return s;
      }
    }
  }

 private:
  const fd::OmegaZOracle& inner_;
};

constexpr int kBugN = 5;
constexpr int kBugT = 2;
constexpr int kBugZ = 1;
constexpr Time kBugHorizon = 4'000;

RunOutcome run_hooked_buggy_case(const ScheduleCase& c,
                                 const RunContext& ctx) {
  sim::SimConfig sc;
  sc.seed = c.seed;
  sc.n = kBugN;
  sc.t = kBugT;
  sc.horizon = kBugHorizon;
  sim::Simulator sim(sc, c.crashes,
                     ctx.delay_factory ? ctx.delay_factory()
                                       : make_delay_policy(c.adversary));
  DeliveryDigest digest;
  sim.set_delivery_observer(
      [&digest](Time at, ProcessId to, const sim::Message& m) {
        digest.observe(at, to, m);
      });
  for (ProcessId i = 0; i < kBugN; ++i) {
    sim.add_process(std::make_unique<ChatterProcess>(i, kBugN, kBugT));
  }
  if (ctx.on_simulator) ctx.on_simulator(sim);
  fd::OmegaOracleParams op;
  op.stab_time = 0;
  op.anarchy_before_stab = false;
  op.forced_final_set = ProcSet{0};
  const fd::OmegaZOracle inner(sim.pattern(), kBugZ, op);
  const WidenedOmega widened(inner);
  sim.run();

  RunOutcome out;
  const fd::CheckResult r = fd::check_leader_oracle(
      widened, sim.pattern(), kBugZ, kBugHorizon, /*step=*/100);
  if (!r) out.violations.push_back({"dfsred-buggy/omega", r.detail});
  out.ok = out.violations.empty();
  out.events_processed = sim.events_processed();
  out.total_messages = sim.network().total_sent();
  out.digest = digest.value();
  return out;
}

const Protocol& hooked_buggy_protocol() {
  static const Protocol* p = [] {
    register_protocol({"dfsred-buggy-omega", kBugN, kBugT, kBugHorizon,
                       run_hooked_buggy_case, nullptr});
    return find_protocol("dfsred-buggy-omega");
  }();
  return *p;
}

// --- the differential harness ------------------------------------------

DfsOptions race_opt(int depth, bool hash, bool sym, bool por) {
  DfsOptions opt;
  opt.depth = depth;
  opt.mode = DfsMode::kDispatchOrder;
  opt.state_hash = hash;
  opt.symmetry = sym;
  opt.por = por;
  opt.max_runs = 1u << 18;
  return opt;
}

DfsOptions menu_opt(int depth, bool hash, bool sym) {
  DfsOptions opt;
  opt.depth = depth;
  opt.state_hash = hash;
  opt.symmetry = sym;
  opt.max_runs = 1u << 18;
  return opt;
}

/// The equivalence contract: same verdict, same decision sets, no more
/// runs than brute, and both searches actually finished.
void expect_equivalent(const DfsReport& brute, const DfsReport& reduced,
                       const std::string& label) {
  ASSERT_TRUE(brute.exhausted) << label;
  ASSERT_TRUE(reduced.exhausted) << label;
  EXPECT_EQ(brute.clean(), reduced.clean()) << label;
  EXPECT_EQ(brute.decision_sets, reduced.decision_sets) << label;
  EXPECT_LE(reduced.runs, brute.runs) << label;
}

// --- menu-mode differentials -------------------------------------------

TEST(DfsReductionMenu, KsetTinyMatchesBruteAtDepths6To10) {
  for (const int depth : {6, 8, 10}) {
    const DfsReport brute =
        explore_interleavings(kset_tiny(), {}, menu_opt(depth, false, false));
    for (const auto& [hash, sym] :
         {std::pair{true, false}, {false, true}, {true, true}}) {
      const DfsReport red =
          explore_interleavings(kset_tiny(), {}, menu_opt(depth, hash, sym));
      expect_equivalent(brute, red,
                        "kset-tiny menu depth=" + std::to_string(depth) +
                            " hash=" + std::to_string(hash) +
                            " sym=" + std::to_string(sym));
    }
  }
}

TEST(DfsReductionMenu, KsetSmallMatchesBruteAtDepths6And8) {
  for (const int depth : {6, 8}) {
    const Protocol* p = find_protocol("kset-small");
    ASSERT_NE(p, nullptr);
    const DfsReport brute =
        explore_interleavings(*p, {}, menu_opt(depth, false, false));
    for (const auto& [hash, sym] :
         {std::pair{true, false}, {false, true}, {true, true}}) {
      const DfsReport red =
          explore_interleavings(*p, {}, menu_opt(depth, hash, sym));
      expect_equivalent(brute, red,
                        "kset-small menu depth=" + std::to_string(depth) +
                            " hash=" + std::to_string(hash) +
                            " sym=" + std::to_string(sym));
    }
  }
}

TEST(DfsReductionMenu, KsetSymSymmetryActuallyPrunes) {
  const Protocol* p = find_protocol("kset-sym");
  ASSERT_NE(p, nullptr);
  for (const int depth : {6, 8, 10}) {
    const DfsReport brute =
        explore_interleavings(*p, {}, menu_opt(depth, false, false));
    const DfsReport red =
        explore_interleavings(*p, {}, menu_opt(depth, true, true));
    expect_equivalent(brute, red,
                      "kset-sym menu depth=" + std::to_string(depth));
    // The forced-{0} perfect-oracle instance has a genuine S_3 symmetry
    // on {1,2,3}; the reduction must find the group AND convert it into
    // pruned runs, not just recompute digests.
    EXPECT_EQ(red.stats.group_size, 6u) << depth;
    EXPECT_LT(red.runs, brute.runs) << depth;
  }
}

TEST(DfsReductionMenu, TwoWheelsSmallMatchesBruteAtDepth6) {
  const Protocol* p = find_protocol("two-wheels-small");
  ASSERT_NE(p, nullptr);
  const DfsReport brute =
      explore_interleavings(*p, {}, menu_opt(6, false, false));
  for (const auto& [hash, sym] :
       {std::pair{true, false}, {false, true}, {true, true}}) {
    const DfsReport red =
        explore_interleavings(*p, {}, menu_opt(6, hash, sym));
    expect_equivalent(brute, red,
                      "two-wheels-small menu hash=" + std::to_string(hash) +
                          " sym=" + std::to_string(sym));
  }
}

// --- dispatch-order (race) differentials -------------------------------

TEST(DfsReductionRace, KsetTinyAllReductionsMatchBrute) {
  for (const int depth : {2, 3}) {
    const DfsReport brute = explore_interleavings(
        kset_tiny(), {}, race_opt(depth, false, false, false));
    const struct {
      bool hash, sym, por;
    } variants[] = {
        {true, false, false}, {false, true, false}, {false, false, true},
        {true, true, true},
    };
    for (const auto& v : variants) {
      if (v.por && depth < 3) continue;  // depth-truncation (header note)
      const DfsReport red = explore_interleavings(
          kset_tiny(), {}, race_opt(depth, v.hash, v.sym, v.por));
      expect_equivalent(brute, red,
                        "kset-tiny race depth=" + std::to_string(depth) +
                            " hash=" + std::to_string(v.hash) +
                            " sym=" + std::to_string(v.sym) +
                            " por=" + std::to_string(v.por));
    }
  }
}

TEST(DfsReductionRace, PorBacksOffToTheFullRaceUnderSendTriggeredCrash) {
  // A pending send-triggered crash makes deliveries to distinct
  // receivers dependent, so POR must branch over the whole race there
  // (and its Debug recheck must accept that race) and still match brute.
  for (const std::uint64_t sends : {1, 3, 6}) {
    ScheduleCase c;
    c.crashes.crash_after_sends(1, sends);
    const DfsReport brute =
        explore_interleavings(kset_tiny(), c, race_opt(3, false, false, false));
    const DfsReport por =
        explore_interleavings(kset_tiny(), c, race_opt(3, false, false, true));
    expect_equivalent(brute, por,
                      "kset-tiny race depth=3 por, p1 crashes after " +
                          std::to_string(sends) + " sends");
  }
}

TEST(DfsReductionRace, KsetSmallHashAloneAndCombinedMatchBrute) {
  const Protocol* p = find_protocol("kset-small");
  ASSERT_NE(p, nullptr);
  {
    const DfsReport brute =
        explore_interleavings(*p, {}, race_opt(2, false, false, false));
    for (const auto& [hash, sym] : {std::pair{true, false}, {false, true}}) {
      const DfsReport red =
          explore_interleavings(*p, {}, race_opt(2, hash, sym, false));
      expect_equivalent(brute, red,
                        "kset-small race depth=2 hash=" +
                            std::to_string(hash) + " sym=" +
                            std::to_string(sym));
    }
  }
  {
    const DfsReport brute =
        explore_interleavings(*p, {}, race_opt(3, false, false, false));
    const DfsReport hashed =
        explore_interleavings(*p, {}, race_opt(3, true, false, false));
    expect_equivalent(brute, hashed, "kset-small race depth=3 hash");
    EXPECT_GT(hashed.stats.hash_prunes, 0u);
    const DfsReport all =
        explore_interleavings(*p, {}, race_opt(3, true, true, true));
    expect_equivalent(brute, all, "kset-small race depth=3 all");
    // The headline acceptance bar: >= 10x fewer runs at equal depth.
    EXPECT_GE(brute.runs, 10 * all.runs)
        << brute.runs << " vs " << all.runs;
  }
}

TEST(DfsReductionRace, KsetSymAllReductionsMatchBrute) {
  const Protocol* p = find_protocol("kset-sym");
  ASSERT_NE(p, nullptr);
  for (const int depth : {2, 3}) {
    const DfsReport brute =
        explore_interleavings(*p, {}, race_opt(depth, false, false, false));
    const DfsReport red = explore_interleavings(
        *p, {}, race_opt(depth, true, true, depth >= 3));
    expect_equivalent(brute, red,
                      "kset-sym race depth=" + std::to_string(depth));
    EXPECT_EQ(red.stats.group_size, 6u);
    EXPECT_LT(red.runs, brute.runs);
  }
}

TEST(DfsReductionRace, TwoWheelsSmallFullReductionMatchesBrute) {
  const Protocol* p = find_protocol("two-wheels-small");
  ASSERT_NE(p, nullptr);
  const DfsReport brute =
      explore_interleavings(*p, {}, race_opt(2, false, false, false));
  const DfsReport hashed =
      explore_interleavings(*p, {}, race_opt(2, true, false, false));
  expect_equivalent(brute, hashed, "two-wheels-small race depth=2 hash");
  const DfsReport all =
      explore_interleavings(*p, {}, race_opt(2, true, true, true));
  // POR soundness includes the deferred branches being reachable one
  // level deeper; at this protocol the depth-2 decision sets already
  // coincide (the wheels' decisions do not depend on the first two
  // dispatch races), so full equivalence holds even here.
  expect_equivalent(brute, all, "two-wheels-small race depth=2 all");
}

TEST(DfsReductionRace, WidenedOracleDecisionSplitSurvivesEveryReduction) {
  const DfsReport brute = explore_interleavings(
      kset_widened(), {}, race_opt(3, false, false, false));
  // The whole point of this fixture: the dispatch order genuinely
  // changes the decided value, so brute sees more than one decision
  // set. If it did not, the equality below would test nothing.
  ASSERT_GE(brute.decision_sets.size(), 2u);
  for (const auto& v : {std::tuple{false, false, true},
                        {true, true, false},
                        {true, true, true}}) {
    const auto& [hash, sym, por] = v;
    const DfsReport red = explore_interleavings(
        kset_widened(), {}, race_opt(3, hash, sym, por));
    expect_equivalent(brute, red,
                      "kset-widened race depth=3 hash=" +
                          std::to_string(hash) + " sym=" +
                          std::to_string(sym) + " por=" +
                          std::to_string(por));
  }
}

TEST(DfsReductionRace, InjectedBugStillCaughtUnderFullReduction) {
  const DfsReport report = explore_interleavings(
      hooked_buggy_protocol(), {}, race_opt(3, true, true, true));
  EXPECT_TRUE(report.exhausted);
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations.front().outcome.violations[0].invariant,
            "dfsred-buggy/omega");
  // The bug is schedule-independent, so the reduction must flag every
  // run it does explore, not merely one of them.
  EXPECT_EQ(report.violations.size(), report.runs);
}

// --- canonicalizer property tests --------------------------------------

TEST(SymmetryCanonicalizer, IdempotentAndOrbitInvariantOnRandomSamples) {
  util::Rng rng(2026);
  int checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform(4, 8));
    std::vector<std::uint64_t> sig(static_cast<std::size_t>(n));
    for (auto& s : sig) {
      s = static_cast<std::uint64_t>(rng.uniform(0, 2));  // equal-id classes
    }
    const std::vector<util::Perm> group = util::perms_fixing_signatures(sig);
    ASSERT_FALSE(group.empty());
    ASSERT_TRUE(group.front().is_identity());
    for (int sample = 0; sample < 50; ++sample) {
      ProcSet s;
      for (ProcessId i = 0; i < n; ++i) {
        if (rng.flip(0.5)) s.insert(i);
      }
      const ProcSet canon = util::canonical_set(group, s);
      // Idempotence: canonicalizing a canonical form is the identity.
      EXPECT_EQ(util::canonical_set(group, canon), canon);
      // Invariance: every orbit member canonicalizes to the same form.
      const util::Perm& pi = group[rng.index(group.size())];
      EXPECT_EQ(util::canonical_set(group, pi.apply(s)), canon);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 10'000);
}

// --- state-digest property tests ---------------------------------------

class NopProcess final : public sim::Process {
 public:
  NopProcess(ProcessId id, int n, int t) : Process(id, n, t) {}
  sim::ProtocolTask run() override {
    while (true) co_await sleep_for(1'000);
  }
};

struct PingMsg final : sim::Message {
  std::string_view tag() const override { return "dfsred-ping"; }
};
struct PongMsg final : sim::Message {
  std::string_view tag() const override { return "dfsred-pong"; }
};

std::unique_ptr<sim::Simulator> make_nop_sim() {
  sim::SimConfig sc;
  sc.seed = 7;
  sc.n = 2;
  sc.t = 0;
  sc.horizon = 100;
  auto sim = std::make_unique<sim::Simulator>(
      sc, sim::CrashPlan{}, std::make_unique<sim::FixedDelay>(1));
  for (ProcessId i = 0; i < 2; ++i) {
    sim->add_process(std::make_unique<NopProcess>(i, 2, 0));
  }
  return sim;
}

std::uint64_t digest_of(const sim::Simulator& sim) {
  sim::StateDigest d;
  sim.state_digest(d);
  return d.value();
}

TEST(StateDigestProperties, StableAcrossArenaReallocation) {
  auto a = make_nop_sim();
  auto b = make_nop_sim();
  // Burn allocations in b so its arena grows extra blocks and every
  // subsequent message lands at a different address than a's. The
  // digest promises to hash values, never pointers, so the two
  // logically identical states below must collide exactly.
  for (int i = 0; i < 10'000; ++i) b->arena().create<TickMsg>();
  const sim::Message* ma = a->arena().create<PingMsg>();
  const sim::Message* mb = b->arena().create<PingMsg>();
  a->inject_deliver(0, ma);
  b->inject_deliver(0, mb);
  EXPECT_EQ(digest_of(*a), digest_of(*b));
}

TEST(StateDigestProperties, InsensitiveToSameInstantQueueOrder) {
  auto a = make_nop_sim();
  auto b = make_nop_sim();
  // Same two pending deliveries at the same instant, enqueued in
  // opposite orders: the queue's internal (time, seq) order within one
  // instant is a scheduling artifact, not semantic state, so the
  // digests must match.
  const sim::Message* ping_a = a->arena().create<PingMsg>();
  const sim::Message* pong_a = a->arena().create<PongMsg>();
  a->inject_deliver(0, ping_a);
  a->inject_deliver(1, pong_a);
  const sim::Message* ping_b = b->arena().create<PingMsg>();
  const sim::Message* pong_b = b->arena().create<PongMsg>();
  b->inject_deliver(1, pong_b);
  b->inject_deliver(0, ping_b);
  EXPECT_EQ(digest_of(*a), digest_of(*b));

  // Sanity: the digest is not degenerate — dropping one of the pending
  // deliveries changes it.
  auto c = make_nop_sim();
  c->inject_deliver(0, c->arena().create<PingMsg>());
  EXPECT_NE(digest_of(*a), digest_of(*c));
}

}  // namespace
}  // namespace saf::check
