// The calendar queue's determinism contract: pop order is EXACTLY
// ascending (time, seq) — bit-for-bit what the binary heap it replaced
// produced. Checked differentially against a reference model across the
// window edges (same-instant runs, window advance, far-future jumps,
// overflow migration, rewind after a drained window).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace saf::sim {
namespace {

Event ev(Time t, std::uint64_t seq) {
  Event e;
  e.time = t;
  e.seq = seq;
  return e;
}

/// Reference model: a stable sort on (time, seq).
std::vector<std::pair<Time, std::uint64_t>> sorted(
    std::vector<std::pair<Time, std::uint64_t>> keys) {
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Pops everything and returns the (time, seq) sequence.
std::vector<std::pair<Time, std::uint64_t>> drain(EventQueue& q) {
  std::vector<std::pair<Time, std::uint64_t>> out;
  while (!q.empty()) {
    const Event& top = q.peek();
    const Event e = q.pop();
    EXPECT_EQ(top.time, e.time);
    out.emplace_back(e.time, e.seq);
  }
  return out;
}

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, SameInstantPopsInPushOrder) {
  EventQueue q;
  for (std::uint64_t s = 0; s < 100; ++s) q.push(ev(42, s));
  for (std::uint64_t s = 0; s < 100; ++s) {
    const Event e = q.pop();
    EXPECT_EQ(e.time, 42);
    EXPECT_EQ(e.seq, s);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TimeOrderBeatsPushOrder) {
  EventQueue q;
  q.push(ev(10, 0));
  q.push(ev(3, 1));
  q.push(ev(7, 2));
  EXPECT_EQ(q.pop().time, 3);
  EXPECT_EQ(q.pop().time, 7);
  EXPECT_EQ(q.pop().time, 10);
}

TEST(EventQueue, FarFutureEventsBeyondTheWindowAreOrdered) {
  // 1024-instant window: these all land in the overflow heap and must
  // still come back in (time, seq) order across several window jumps.
  EventQueue q;
  std::vector<std::pair<Time, std::uint64_t>> keys;
  std::uint64_t seq = 0;
  for (Time t : {50'000, 5'000, 500'000, 5, 50, 5'000}) {
    keys.emplace_back(t, seq);
    q.push(ev(t, seq++));
  }
  EXPECT_EQ(drain(q), sorted(keys));
}

TEST(EventQueue, WindowJumpOverAnEmptyGapFindsTheOverflowMinimum) {
  EventQueue q;
  q.push(ev(3, 0));
  q.push(ev(1'000'000, 1));
  EXPECT_EQ(q.pop().time, 3);
  EXPECT_EQ(q.peek().time, 1'000'000);
  EXPECT_EQ(q.pop().seq, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedPushPopKeepsGlobalOrder) {
  // The simulator's actual shape: pop one, push successors a few instants
  // ahead. The popped sequence must be the sorted merge of everything.
  EventQueue q;
  util::Rng rng(99);
  std::uint64_t seq = 0;
  std::vector<std::pair<Time, std::uint64_t>> keys;
  auto push = [&](Time t) {
    keys.emplace_back(t, seq);
    q.push(ev(t, seq++));
  };
  for (int i = 0; i < 32; ++i) push(rng.uniform(0, 20));
  std::vector<std::pair<Time, std::uint64_t>> popped;
  while (!q.empty()) {
    const Event e = q.pop();
    popped.emplace_back(e.time, e.seq);
    if (seq < 4'000) {
      // Mixed horizon: mostly near successors, occasional far timers.
      const Time ahead = rng.flip(0.05) ? rng.uniform(1500, 40'000)
                                        : rng.uniform(1, 30);
      push(e.time + ahead);
      if (rng.flip(0.3)) push(e.time);  // same-instant follow-up
    }
  }
  EXPECT_EQ(popped, sorted(keys));
}

TEST(EventQueue, PushBeforeTheCurrentWindowRewinds) {
  // After draining to a far-future instant, the engine can legally push
  // an earlier-but-not-past time (a horizon-break peek advanced the
  // cursor past instants that later get new events).
  EventQueue q;
  q.push(ev(10'000, 0));
  EXPECT_EQ(q.pop().time, 10'000);  // window has jumped to 10'000
  q.push(ev(100, 1));               // before window_base: rewind path
  q.push(ev(10'500, 2));
  q.push(ev(101, 3));
  EXPECT_EQ(q.pop().time, 100);
  EXPECT_EQ(q.pop().time, 101);
  EXPECT_EQ(q.pop().time, 10'500);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DifferentialRandomAgainstReferenceModel) {
  // Random workloads across all regimes (dense instants, window-sized
  // gaps, far-future spikes), each drained fully and compared to the
  // stable-sort reference.
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    util::Rng rng(1000 + trial);
    EventQueue q;
    std::vector<std::pair<Time, std::uint64_t>> keys;
    std::uint64_t seq = 0;
    const int n = 200 + static_cast<int>(rng.uniform(0, 1800));
    Time base = 0;
    for (int i = 0; i < n; ++i) {
      if (rng.flip(0.02)) base += rng.uniform(1, 5'000);  // regime shift
      const Time t = base + rng.uniform(0, rng.flip(0.1) ? 8'000 : 64);
      keys.emplace_back(t, seq);
      q.push(ev(t, seq++));
      // Occasionally drain a prefix mid-build to stress cursor motion.
      if (rng.flip(0.05) && !q.empty()) {
        const Event e = q.pop();
        const auto it = std::find(keys.begin(), keys.end(),
                                  std::make_pair(e.time, e.seq));
        ASSERT_NE(it, keys.end());
        // Must be the minimum of what's queued.
        EXPECT_EQ(std::make_pair(e.time, e.seq),
                  *std::min_element(keys.begin(), keys.end()));
        keys.erase(it);
        base = std::max(base, e.time);
      }
    }
    EXPECT_EQ(drain(q), sorted(keys)) << "trial " << trial;
  }
}

TEST(EventQueue, ReadyRunPopsAgainstReferenceModel) {
  // The race chooser's seam: ready() must be exactly the minimum
  // instant's events in seq order, and pop_ready(i) must remove the
  // i-th (i = 0 is the pop() path) and leave the rest in order. The
  // reference is the stable-sort model with the same picks applied.
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    util::Rng rng(3000 + trial);
    EventQueue q;
    std::vector<std::pair<Time, std::uint64_t>> ref;  // kept sorted
    std::uint64_t seq = 0;
    auto push = [&](Time t) {
      const std::pair<Time, std::uint64_t> k{t, seq};
      ref.insert(std::upper_bound(ref.begin(), ref.end(), k), k);
      q.push(ev(t, seq++));
    };
    for (int i = 0; i < 64; ++i) push(rng.uniform(0, 6));
    std::vector<std::pair<Time, std::uint64_t>> popped, expected;
    while (!q.empty()) {
      const std::span<const Event> ready = q.ready();
      std::size_t run = 0;
      while (run < ref.size() && ref[run].first == ref.front().first) ++run;
      ASSERT_EQ(ready.size(), run);
      for (std::size_t k = 0; k < run; ++k) {
        ASSERT_EQ(std::make_pair(ready[k].time, ready[k].seq), ref[k]);
      }
      const std::size_t i = rng.flip(0.3) ? 0 : rng.index(run);
      const Event e = q.pop_ready(i);
      popped.emplace_back(e.time, e.seq);
      expected.push_back(ref[i]);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
      if (seq < 3'000) {
        // Same-instant follow-ups land behind the moved-up prefix;
        // occasional far timers cross the window into the overflow.
        if (rng.flip(0.4)) push(e.time);
        push(e.time + (rng.flip(0.05) ? rng.uniform(1500, 40'000)
                                      : rng.uniform(1, 4)));
      }
    }
    EXPECT_EQ(popped, expected) << "trial " << trial;
    EXPECT_TRUE(ref.empty());
  }
}

TEST(EventQueue, SizeTracksPushesAndPops) {
  EventQueue q;
  for (std::uint64_t s = 0; s < 10; ++s) q.push(ev(s * 700, s));
  EXPECT_EQ(q.size(), 10u);
  q.pop();
  q.pop();
  EXPECT_EQ(q.size(), 8u);
  drain(q);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace saf::sim
