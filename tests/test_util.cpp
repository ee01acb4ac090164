// Tests for the utility layer: ProcSet, RNG, combinatorics, scan rings,
// step traces, and summary statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "util/combinatorics.h"
#include "util/ring.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/trace.h"
#include "util/types.h"

namespace saf {
namespace {

TEST(ProcSet, BasicSetAlgebra) {
  ProcSet a{0, 2, 5};
  ProcSet b{2, 3};
  EXPECT_EQ(a.size(), 3);
  EXPECT_TRUE(a.contains(5));
  EXPECT_FALSE(a.contains(1));
  EXPECT_EQ((a | b), ProcSet({0, 2, 3, 5}));
  EXPECT_EQ((a & b), ProcSet({2}));
  EXPECT_EQ((a - b), ProcSet({0, 5}));
  EXPECT_TRUE(ProcSet({2}).subset_of(a));
  EXPECT_FALSE(a.subset_of(b));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_EQ(a.min(), 0);
  EXPECT_EQ(ProcSet{}.min(), -1);
}

TEST(ProcSet, FullAndIteration) {
  const ProcSet f = ProcSet::full(5);
  EXPECT_EQ(f.size(), 5);
  std::vector<ProcessId> ids;
  for (ProcessId id : f) ids.push_back(id);
  EXPECT_EQ(ids, (std::vector<ProcessId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(f.to_vector(), ids);
  EXPECT_EQ(ProcSet({1, 3}).to_string(), "{1,3}");
}

TEST(ProcSet, EraseAndEmpty) {
  ProcSet s{4};
  s.erase(4);
  EXPECT_TRUE(s.empty());
  s.erase(4);  // idempotent
  EXPECT_TRUE(s.empty());
}

TEST(Rng, DeterministicPerSeed) {
  util::Rng a(7), b(7), c(8);
  const auto va = a.uniform(0, 1000);
  EXPECT_EQ(va, b.uniform(0, 1000));
  // Different seed almost surely differs; draw several to be safe.
  bool any_diff = false;
  util::Rng a2(7);
  for (int i = 0; i < 16; ++i) {
    any_diff |= (a2.uniform(0, 1 << 30) != c.uniform(0, 1 << 30));
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, SubsetHasRequestedSizeAndStaysInUniverse) {
  util::Rng rng(13);
  const ProcSet universe{1, 3, 4, 6, 9};
  for (int k = 0; k <= universe.size(); ++k) {
    const ProcSet s = rng.subset(universe, k);
    EXPECT_EQ(s.size(), k);
    EXPECT_TRUE(s.subset_of(universe));
  }
}

TEST(ProcSet, NthIsTheRankInIncreasingOrder) {
  util::Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    ProcSet s;
    const int members = static_cast<int>(rng.uniform(0, 40));
    for (int m = 0; m < members; ++m) {
      s.insert(static_cast<ProcessId>(rng.uniform(0, kMaxProcs - 1)));
    }
    const std::vector<ProcessId> ids = s.to_vector();
    for (int r = 0; r < static_cast<int>(ids.size()); ++r) {
      ASSERT_EQ(s.nth(r), ids[static_cast<std::size_t>(r)]);
    }
    EXPECT_EQ(s.nth(static_cast<int>(ids.size())), -1);
  }
}

/// The draw as subset_of made it with the id array built in full.
ProcSet reference_subset(std::mt19937_64& engine, ProcSet universe, int k) {
  std::vector<ProcessId> ids = universe.to_vector();
  ProcSet out;
  for (std::size_t i = 0; i < static_cast<std::size_t>(k); ++i) {
    const auto j = i + static_cast<std::size_t>(util::uniform_in(
                           engine, 0,
                           static_cast<std::int64_t>(ids.size() - i) - 1));
    std::swap(ids[i], ids[j]);
    out.insert(ids[i]);
  }
  return out;
}

TEST(Rng, SubsetDrawsEqualTheFullArrayShuffle) {
  // Dense and sparse universes, one word and many; k from 0 to the whole
  // universe; consecutive draws from one engine, so any divergence in the
  // words consumed would also show in the next draw.
  util::Rng pick(17);
  std::vector<ProcSet> universes{ProcSet::full(1), ProcSet::full(4),
                                 ProcSet::full(64), ProcSet::full(kMaxProcs)};
  for (int u = 0; u < 6; ++u) {
    universes.push_back(pick.subset(ProcSet::full(kMaxProcs), 3 + 40 * u));
  }
  for (const ProcSet& universe : universes) {
    const int size = universe.size();
    for (const int k : {0, 1, 2, 3, size / 2, size - 1, size}) {
      if (k < 0 || k > size) continue;
      for (const std::uint64_t seed : {1ULL, 99ULL, 0xfeedULL}) {
        std::mt19937_64 a(seed), b(seed);
        for (int draw = 0; draw < 3; ++draw) {
          ASSERT_EQ(util::subset_of(a, universe, k),
                    reference_subset(b, universe, k))
              << "size=" << size << " k=" << k << " seed=" << seed
              << " draw=" << draw;
        }
      }
    }
  }
}

TEST(Rng, DerivedSeedsDifferByLabel) {
  EXPECT_NE(util::derive_seed(1, "network"), util::derive_seed(1, "oracle"));
  EXPECT_NE(util::derive_seed(1, "x"), util::derive_seed(2, "x"));
}

TEST(Mt64Prefix, EqualsMt19937_64WordForWord) {
  // Output 155 is the last the lazy prefix computes itself; from 156 on
  // it hands over to a full engine. The draw counts cycle through
  // 1..700, so stops on both sides of that edge (and on it) are covered.
  std::vector<std::uint64_t> seeds{0, 1, ~0ULL, 1ULL << 63,
                                   std::mt19937_64::default_seed};
  for (std::uint64_t s = 0; s < 10'000; ++s) {
    seeds.push_back(s % 2 == 0 ? s : util::derive_seed(s, "mt"));
  }
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    util::Mt64Prefix fast(seeds[k]);
    std::mt19937_64 ref(seeds[k]);
    const std::size_t draws = 1 + (k * 37) % 700;
    for (std::size_t d = 0; d < draws; ++d) {
      ASSERT_EQ(fast(), ref()) << "seed " << seeds[k] << " draw " << d;
    }
  }
}

TEST(Combinatorics, BinomialTable) {
  EXPECT_EQ(util::binomial(5, 0), 1u);
  EXPECT_EQ(util::binomial(5, 2), 10u);
  EXPECT_EQ(util::binomial(5, 5), 1u);
  EXPECT_EQ(util::binomial(5, 6), 0u);
  EXPECT_EQ(util::binomial(10, 3), 120u);
}

TEST(Combinatorics, EnumeratesAllSubsetsOnce) {
  const auto combos = util::combinations(6, 3);
  EXPECT_EQ(combos.size(), 20u);
  std::set<std::uint64_t> seen;
  for (const ProcSet& s : combos) {
    EXPECT_EQ(s.size(), 3);
    EXPECT_TRUE(seen.insert(s.mask()).second);
  }
}

TEST(Combinatorics, SubsetOfArbitraryUniverse) {
  const ProcSet universe{2, 5, 7};
  const auto combos = util::combinations_of(universe, 2);
  ASSERT_EQ(combos.size(), 3u);
  EXPECT_EQ(combos[0], ProcSet({2, 5}));
  EXPECT_EQ(combos[1], ProcSet({2, 7}));
  EXPECT_EQ(combos[2], ProcSet({5, 7}));
}

TEST(MemberRing, EnumeratesLeadersWithinEachSubset) {
  util::MemberRing ring(4, 2);
  // C(4,2)=6 subsets, 2 members each.
  EXPECT_EQ(ring.size(), 12u);
  // First subset {0,1}: positions (0,{0,1}), (1,{0,1}).
  EXPECT_EQ(ring.at(0).leader, 0);
  EXPECT_EQ(ring.at(0).set, ProcSet({0, 1}));
  EXPECT_EQ(ring.at(1).leader, 1);
  // Next wraps subsets then the whole ring.
  EXPECT_EQ(ring.next(1), 2u);
  EXPECT_EQ(ring.at(2).set, ProcSet({0, 2}));
  EXPECT_EQ(ring.next(ring.size() - 1), 0u);
  EXPECT_EQ(ring.find(1, ProcSet({0, 1})), 1u);
  EXPECT_EQ(ring.find(3, ProcSet({0, 1})), ring.size());
}

TEST(SubsetPairRing, EnumeratesInnerSubsetsWithinEachOuter) {
  util::SubsetPairRing ring(4, 3, 2);
  // C(4,3)=4 outers, C(3,2)=3 inners each.
  EXPECT_EQ(ring.size(), 12u);
  EXPECT_EQ(ring.at(0).outer, ProcSet({0, 1, 2}));
  EXPECT_EQ(ring.at(0).inner, ProcSet({0, 1}));
  EXPECT_EQ(ring.at(2).inner, ProcSet({1, 2}));
  EXPECT_EQ(ring.at(3).outer, ProcSet({0, 1, 3}));
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_TRUE(ring.at(i).inner.subset_of(ring.at(i).outer));
  }
  EXPECT_EQ(ring.next(ring.size() - 1), 0u);
}

TEST(Ring, RejectsOversizedRings) {
  EXPECT_THROW(util::MemberRing(30, 15, 1000), std::invalid_argument);
  EXPECT_THROW(util::SubsetPairRing(20, 10, 5, 1000), std::invalid_argument);
}

TEST(StepTrace, RecordsAndQueriesStepFunction) {
  util::StepTrace<int> tr(0);
  tr.record(10, 5);
  tr.record(20, 5);  // no-op: same value
  tr.record(30, 7);
  EXPECT_EQ(tr.at(0), 0);
  EXPECT_EQ(tr.at(9), 0);
  EXPECT_EQ(tr.at(10), 5);
  EXPECT_EQ(tr.at(29), 5);
  EXPECT_EQ(tr.at(30), 7);
  EXPECT_EQ(tr.final(), 7);
  EXPECT_EQ(tr.last_change(), 30);
  EXPECT_EQ(tr.steps().size(), 2u);
}

TEST(StepTrace, EqualTimeOverwritesAndCollapses) {
  util::StepTrace<int> tr(0);
  tr.record(10, 5);
  tr.record(10, 0);  // overwrite back to initial: collapses to no steps
  EXPECT_EQ(tr.steps().size(), 0u);
  EXPECT_EQ(tr.at(10), 0);
  tr.record(10, 3);
  tr.record(10, 4);
  EXPECT_EQ(tr.steps().size(), 1u);
  EXPECT_EQ(tr.at(10), 4);
}

TEST(StepTrace, StableSinceFindsEarliestWitness) {
  util::StepTrace<int> tr(1);
  tr.record(10, 2);
  tr.record(50, 3);
  tr.record(80, 4);
  // pred: value >= 3 holds from the step at 50 on.
  EXPECT_EQ(util::stable_since(tr, [](int v) { return v >= 3; }), 50);
  // pred on final value only.
  EXPECT_EQ(util::stable_since(tr, [](int v) { return v == 4; }), 80);
  // pred holds everywhere.
  EXPECT_EQ(util::stable_since(tr, [](int v) { return v >= 1; }), 0);
  // pred fails at the end.
  EXPECT_EQ(util::stable_since(tr, [](int v) { return v < 4; }), kNeverTime);
  // pred fails only on the initial value.
  EXPECT_EQ(util::stable_since(tr, [](int v) { return v >= 2; }), 10);
}

TEST(Summary, DescriptiveStatistics) {
  util::Summary s;
  for (double v : {4.0, 1.0, 3.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 3.0);
  EXPECT_GT(s.stddev(), 1.0);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_FALSE(s.to_string().empty());
}

}  // namespace
}  // namespace saf
