// Tests for the discrete-event engine: determinism, delays, crashes,
// coroutine wait semantics, and the reliable-broadcast properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/delay_policy.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/reliable_broadcast.h"
#include "sim/simulator.h"

namespace saf::sim {
namespace {

struct PingMsg final : Message {
  explicit PingMsg(int v) : value(v) {}
  std::string_view tag() const override { return "ping"; }
  int value;
};

struct RPingMsg final : Message {
  explicit RPingMsg(int v) : value(v) {}
  std::string_view tag() const override { return "rping"; }
  int value;
};

/// Broadcasts one ping at start; records everything it receives.
class PingProcess : public Process {
 public:
  using Process::Process;

  ProtocolTask run() override {
    broadcast_msg(PingMsg{id() * 1000});
    co_await until([this] {
      return static_cast<int>(received.size()) >= n();
    });
    done_time = now();
  }

  void on_message(const Message& m) override {
    if (const auto* p = dynamic_cast<const PingMsg*>(&m)) {
      received.push_back(p->value);
      senders.push_back(p->sender);
    }
  }

  std::vector<int> received;
  std::vector<ProcessId> senders;
  Time done_time = kNeverTime;
};

SimConfig cfg(int n, int t, std::uint64_t seed = 3, Time horizon = 5000) {
  SimConfig c;
  c.n = n;
  c.t = t;
  c.seed = seed;
  c.horizon = horizon;
  return c;
}

TEST(Simulator, AllToAllPingsDeliverToEveryAliveProcess) {
  SimConfig c = cfg(4, 1);
  Simulator sim(c, CrashPlan{}, std::make_unique<UniformDelay>(1, 10));
  std::vector<PingProcess*> ps;
  for (ProcessId i = 0; i < 4; ++i) {
    ps.push_back(static_cast<PingProcess*>(
        &sim.add_process(std::make_unique<PingProcess>(i, 4, 1))));
  }
  sim.run();
  for (auto* p : ps) {
    EXPECT_EQ(p->received.size(), 4u) << "process " << p->id();
    EXPECT_NE(p->done_time, kNeverTime);
  }
  EXPECT_EQ(sim.network().sent_with_tag("ping"), 16u);
}

TEST(Simulator, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Simulator sim(cfg(5, 2, 42), CrashPlan{},
                  std::make_unique<UniformDelay>(1, 20));
    std::vector<PingProcess*> ps;
    for (ProcessId i = 0; i < 5; ++i) {
      ps.push_back(static_cast<PingProcess*>(
          &sim.add_process(std::make_unique<PingProcess>(i, 5, 2))));
    }
    sim.run();
    std::vector<std::vector<int>> out;
    for (auto* p : ps) out.push_back(p->received);
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulator, SeedChangesDeliveryOrder) {
  auto order_of = [](std::uint64_t seed) {
    Simulator sim(cfg(6, 2, seed), CrashPlan{},
                  std::make_unique<UniformDelay>(1, 50));
    std::vector<PingProcess*> ps;
    for (ProcessId i = 0; i < 6; ++i) {
      ps.push_back(static_cast<PingProcess*>(
          &sim.add_process(std::make_unique<PingProcess>(i, 6, 2))));
    }
    sim.run();
    return ps[0]->senders;
  };
  EXPECT_NE(order_of(1), order_of(99));
}

TEST(Simulator, CrashedProcessStopsSendingAndReceiving) {
  CrashPlan plan;
  plan.crash_at(0, 0);  // crashes before taking any step
  Simulator sim(cfg(3, 1), plan, std::make_unique<FixedDelay>(2));
  std::vector<PingProcess*> ps;
  for (ProcessId i = 0; i < 3; ++i) {
    ps.push_back(static_cast<PingProcess*>(
        &sim.add_process(std::make_unique<PingProcess>(i, 3, 1))));
  }
  sim.run();
  EXPECT_TRUE(ps[0]->received.empty());
  // Others got pings only from the two alive processes.
  EXPECT_EQ(ps[1]->received.size(), 2u);
  EXPECT_EQ(ps[2]->received.size(), 2u);
  EXPECT_TRUE(sim.pattern().crashed_by(0, 0));
}

TEST(Simulator, SendTriggeredCrashCutsABroadcastShort) {
  CrashPlan plan;
  plan.crash_after_sends(0, 2);  // dies after its 2nd unicast
  Simulator sim(cfg(4, 1), plan, std::make_unique<FixedDelay>(2));
  std::vector<PingProcess*> ps;
  for (ProcessId i = 0; i < 4; ++i) {
    ps.push_back(static_cast<PingProcess*>(
        &sim.add_process(std::make_unique<PingProcess>(i, 4, 1))));
  }
  sim.run();
  // p0's broadcast put exactly two copies in flight (self + p1, sends in
  // id order); the self-copy is dropped at delivery because p0 is dead,
  // so exactly one ping from p0 lands — at p1.
  int got = 0;
  for (auto* p : ps) {
    for (ProcessId s : p->senders) {
      if (s == 0) ++got;
    }
  }
  EXPECT_EQ(got, 1);
  EXPECT_EQ(ps[1]->senders.front() == 0 ||
                std::count(ps[1]->senders.begin(), ps[1]->senders.end(), 0) == 1,
            true);
  EXPECT_TRUE(sim.pattern().crashed_by(0, sim.now()));
}

// --- Reliable broadcast ------------------------------------------------

class RbProcess : public Process {
 public:
  RbProcess(ProcessId id, int n, int t, bool broadcaster)
      : Process(id, n, t), broadcaster_(broadcaster) {}

  ProtocolTask run() override {
    if (broadcaster_) {
      rbroadcast_msg(RPingMsg{7});
      rbroadcast_msg(RPingMsg{8});
    }
    co_await until([] { return false; });  // stay alive forever
  }

  void on_rdeliver(const Message& m) override {
    delivered.push_back(dynamic_cast<const RPingMsg&>(m).value);
  }

  std::vector<int> delivered;

 private:
  bool broadcaster_;
};

TEST(ReliableBroadcast, DeliveredExactlyOnceByEveryCorrectProcess) {
  Simulator sim(cfg(5, 2), CrashPlan{}, std::make_unique<UniformDelay>(1, 9));
  std::vector<RbProcess*> ps;
  for (ProcessId i = 0; i < 5; ++i) {
    ps.push_back(static_cast<RbProcess*>(&sim.add_process(
        std::make_unique<RbProcess>(i, 5, 2, /*broadcaster=*/i == 0))));
  }
  sim.run();
  for (auto* p : ps) {
    ASSERT_EQ(p->delivered.size(), 2u) << "process " << p->id();
    EXPECT_EQ(p->delivered[0] + p->delivered[1], 15);  // {7, 8}, any order
  }
}

TEST(ReliableBroadcast, TerminationDespiteSenderCrashMidBroadcast) {
  // p0 R-broadcasts, but crashes after reaching only one peer; the relay
  // must still deliver to every correct process.
  CrashPlan plan;
  plan.crash_after_sends(0, 2);  // self + one peer
  Simulator sim(cfg(5, 2), plan, std::make_unique<FixedDelay>(3));
  std::vector<RbProcess*> ps;
  for (ProcessId i = 0; i < 5; ++i) {
    ps.push_back(static_cast<RbProcess*>(&sim.add_process(
        std::make_unique<RbProcess>(i, 5, 2, i == 0))));
  }
  sim.run();
  for (ProcessId i = 1; i < 5; ++i) {
    ASSERT_GE(ps[static_cast<std::size_t>(i)]->delivered.size(), 1u)
        << "correct process " << i << " missed the R-broadcast";
    EXPECT_EQ(ps[static_cast<std::size_t>(i)]->delivered[0], 7);
  }
  // Agreement on what was delivered: either everyone got only the first
  // message, or everyone got both.
  for (ProcessId i = 2; i < 5; ++i) {
    EXPECT_EQ(ps[static_cast<std::size_t>(i)]->delivered,
              ps[1]->delivered);
  }
}

// --- Coroutine wait semantics ------------------------------------------

class SleeperProcess : public Process {
 public:
  using Process::Process;
  ProtocolTask run() override {
    co_await sleep_for(10);
    wake1 = now();
    co_await sleep_for(25);
    wake2 = now();
  }
  Time wake1 = kNeverTime;
  Time wake2 = kNeverTime;
};

TEST(Simulator, SleepForWakesAtTheRightVirtualTimes) {
  Simulator sim(cfg(1, 0), CrashPlan{}, std::make_unique<FixedDelay>(1));
  auto& p = static_cast<SleeperProcess&>(
      sim.add_process(std::make_unique<SleeperProcess>(0, 1, 0)));
  sim.run();
  EXPECT_EQ(p.wake1, 10);
  EXPECT_EQ(p.wake2, 35);
}

class TwoTaskProcess : public Process {
 public:
  using Process::Process;
  void boot() override {
    spawn(task_a());
    spawn(task_b());
  }
  ProtocolTask task_a() {
    co_await until([this] { return flag; });
    a_done = now();
  }
  ProtocolTask task_b() {
    co_await sleep_for(42);
    flag = true;
    b_done = now();
  }
  bool flag = false;
  Time a_done = kNeverTime;
  Time b_done = kNeverTime;
};

TEST(Simulator, MultipleTasksPerProcessWakeEachOther) {
  Simulator sim(cfg(1, 0), CrashPlan{}, std::make_unique<FixedDelay>(1));
  auto& p = static_cast<TwoTaskProcess&>(
      sim.add_process(std::make_unique<TwoTaskProcess>(0, 1, 0)));
  sim.run();
  EXPECT_EQ(p.b_done, 42);
  EXPECT_EQ(p.a_done, 42);  // until() noticed the flag at the same instant
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim(cfg(2, 0, 3, 100000), CrashPlan{},
                std::make_unique<FixedDelay>(5));
  sim.add_process(std::make_unique<PingProcess>(0, 2, 0));
  sim.add_process(std::make_unique<PingProcess>(1, 2, 0));
  const bool stopped = sim.run_until([&] { return sim.now() >= 7; });
  EXPECT_TRUE(stopped);
  EXPECT_LT(sim.now(), 100);
}

// --- Task reaping --------------------------------------------------------

/// Spawns one short task per time unit; each sleeps a little and ends.
class ChurningSpawner : public Process {
 public:
  ChurningSpawner(ProcessId id, int n, int t, int tasks, bool fail_last)
      : Process(id, n, t), tasks_(tasks), fail_last_(fail_last) {}

  void boot() override { spawn(spawner()); }

  ProtocolTask spawner() {
    for (int i = 0; i < tasks_; ++i) {
      spawn(short_task(fail_last_ && i == tasks_ - 1));
      max_live = std::max(max_live, live_tasks());
      co_await sleep_for(1);
    }
  }

  ProtocolTask short_task(bool fail) {
    co_await sleep_for(3);
    if (fail) throw std::runtime_error("task failed after reaping");
    ++finished;
  }

  std::size_t max_live = 0;
  int finished = 0;

 private:
  int tasks_;
  bool fail_last_;
};

TEST(Simulator, FinishedTasksAreReaped) {
  constexpr int kTasks = 10'000;
  Simulator sim(cfg(1, 0, 3, 3 * kTasks), CrashPlan{},
                std::make_unique<FixedDelay>(1));
  auto& p = static_cast<ChurningSpawner&>(sim.add_process(
      std::make_unique<ChurningSpawner>(0, 1, 0, kTasks, false)));
  sim.run();
  EXPECT_EQ(p.finished, kTasks);
  // The spawner plus the few short tasks still sleeping — never the
  // thousands that already finished.
  EXPECT_LE(p.max_live, 6u);
  EXPECT_EQ(p.live_tasks(), 0u);
}

TEST(Simulator, TaskExceptionSurfacesAfterReaping) {
  Simulator sim(cfg(1, 0, 3, 10'000), CrashPlan{},
                std::make_unique<FixedDelay>(1));
  auto& p = static_cast<ChurningSpawner&>(sim.add_process(
      std::make_unique<ChurningSpawner>(0, 1, 0, 200, true)));
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(p.finished, 199);
  EXPECT_GE(p.live_tasks(), 1u);  // the failed task is kept, not reaped
}

// --- Message arena generations --------------------------------------------

/// Records the payload of every ping it is handed.
class PingSink : public Process {
 public:
  using Process::Process;
  void boot() override {}
  void on_message(const Message& m) override {
    if (const auto* p = dynamic_cast<const PingMsg*>(&m)) {
      got.push_back(p->value);
    }
  }
  void on_rdeliver(const Message& m) override { on_message(m); }
  std::vector<int> got;
};

TEST(ArenaGenerations, PendingDeliveryHoldsItsGeneration) {
  Simulator sim(cfg(1, 0), CrashPlan{}, std::make_unique<FixedDelay>(1));
  auto& p = static_cast<PingSink&>(
      sim.add_process(std::make_unique<PingSink>(0, 1, 0)));
  sim.pump(0);
  const Message* m = sim.arena().create<PingMsg>(41);
  EXPECT_EQ(m->arena_generation, 0u);
  sim.inject_deliver(0, m);
  EXPECT_TRUE(sim.start_generation());  // generation 1: nothing to reset
  EXPECT_EQ(sim.generation(), 1u);
  // Generation 2 would reset generation 0, which the pending delivery
  // still points into.
  EXPECT_FALSE(sim.start_generation());
  EXPECT_EQ(sim.generation(), 1u);
  sim.pump(1);
  EXPECT_EQ(p.got, std::vector<int>{41});
  EXPECT_TRUE(sim.start_generation());
  EXPECT_EQ(sim.generation(), 2u);
  EXPECT_EQ(sim.arena().create<PingMsg>(1)->arena_generation, 2u);
}

TEST(ArenaGenerations, ForwardedEnvelopeHoldsItsInnerPayload) {
  Simulator sim(cfg(1, 0), CrashPlan{}, std::make_unique<FixedDelay>(1));
  auto& p = static_cast<PingSink&>(
      sim.add_process(std::make_unique<PingSink>(0, 1, 0)));
  sim.pump(0);
  const Message* inner = sim.arena().create<PingMsg>(7);  // generation 0
  ASSERT_TRUE(sim.start_generation());
  // An envelope allocated in generation 1 around a generation-0 payload,
  // as an RB forward made after a generation change is.
  auto* env = sim.arena().create<RbEnvelope>();
  env->origin = 0;
  env->origin_seq = 0;
  env->inner = inner;
  EXPECT_EQ(env->arena_generation, 1u);
  EXPECT_EQ(env->oldest_generation(), 0u);
  sim.inject_deliver(0, env);
  EXPECT_FALSE(sim.start_generation());
  sim.pump(1);
  EXPECT_EQ(p.got, std::vector<int>{7});
  EXPECT_TRUE(sim.start_generation());
}

TEST(ArenaGenerations, InternedMessagesOutliveEveryGeneration) {
  Simulator sim(cfg(1, 0), CrashPlan{}, std::make_unique<FixedDelay>(1));
  sim.add_process(std::make_unique<PingSink>(0, 1, 0));
  const Message* m = sim.permanent_arena().create<PingMsg>(3);
  EXPECT_EQ(m->oldest_generation(), kPermanentGeneration);
  sim.pump(0);
  sim.inject_deliver(0, m);
  // Permanent messages pin nothing: every generation start succeeds.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(sim.start_generation());
  sim.pump(1);
}

#ifndef NDEBUG
TEST(ArenaGenerationsDeathTest, MessageOfAResetGenerationIsCaught) {
  Simulator sim(cfg(1, 0), CrashPlan{}, std::make_unique<FixedDelay>(1));
  sim.add_process(std::make_unique<PingSink>(0, 1, 0));
  sim.pump(0);
  ASSERT_TRUE(sim.start_generation());
  ASSERT_TRUE(sim.start_generation());  // generation 0 is reset
  // What an unpinned holder would hand back: a message stamped with a
  // generation that is gone (kept on the stack here, so reading it is
  // well defined).
  PingMsg stale(5);
  stale.arena_generation = 0;
  EXPECT_DEATH(sim.inject_deliver(0, &stale), "reset arena generation 0");
}
#endif

// --- RB dedup compaction --------------------------------------------------

/// The digest a plain (uncompacted) key set folds to — the pre-compaction
/// RbLayer fold, kept here as the reference.
std::uint64_t plain_digest(const std::set<std::pair<ProcessId, std::uint64_t>>& keys) {
  StateDigest d;
  std::vector<std::uint64_t> subs;
  for (const auto& [origin, seq] : keys) {
    StateDigest kd;
    kd.mix_id(origin);
    kd.mix_u64(seq);
    subs.push_back(kd.value());
  }
  std::sort(subs.begin(), subs.end());
  d.mix_u64(subs.size());
  for (const std::uint64_t v : subs) d.mix_u64(v);
  return d.value();
}

TEST(ReliableBroadcast, SeenSetCollapsesOutOfOrderKeysIntoTheFloor) {
  RbSeenSet seen;
  std::set<std::pair<ProcessId, std::uint64_t>> plain;
  const auto insert = [&](ProcessId o, std::uint64_t s) {
    const bool fresh = plain.emplace(o, s).second;
    EXPECT_EQ(seen.insert(o, s), fresh) << o << ":" << s;
  };
  for (const std::uint64_t s : {3, 1, 4, 2}) insert(2, s);
  EXPECT_EQ(seen.floor(2), 0u);
  EXPECT_EQ(seen.sparse_size(), 4u);
  insert(2, 0);  // fills the gap: 0..4 collapse into the floor
  EXPECT_EQ(seen.floor(2), 5u);
  EXPECT_EQ(seen.sparse_size(), 0u);
  insert(0, 1);
  insert(0, 0);
  insert(0, 9);
  EXPECT_EQ(seen.floor(0), 2u);
  EXPECT_EQ(seen.sparse_size(), 1u);
  // Duplicates below the floor and in the sparse part are still dropped.
  EXPECT_FALSE(seen.insert(2, 0));
  EXPECT_FALSE(seen.insert(2, 4));
  EXPECT_FALSE(seen.insert(0, 9));
  EXPECT_EQ(seen.floor(1), 0u);  // an origin never heard from
  EXPECT_EQ(seen.size(), plain.size());

  StateDigest d;
  seen.digest(d);
  EXPECT_EQ(d.value(), plain_digest(plain));
}

TEST(ReliableBroadcast, EnvelopeFromAnOriginOutsideTheRunIsDropped) {
  Simulator sim(cfg(2, 0), CrashPlan{}, std::make_unique<FixedDelay>(1));
  auto& p = static_cast<PingSink&>(
      sim.add_process(std::make_unique<PingSink>(0, 2, 0)));
  sim.add_process(std::make_unique<PingSink>(1, 2, 0));
  sim.pump(0);
  for (const ProcessId origin : {-1, 2, 1 << 30}) {
    auto* env = sim.arena().create<RbEnvelope>();
    env->sender = 1;
    env->origin = origin;
    env->inner = sim.arena().create<PingMsg>(origin);
    sim.inject_deliver(0, env);
  }
  sim.pump(5);
  EXPECT_TRUE(p.got.empty());
}

TEST(ReliableBroadcast, SeenSetDigestMatchesThePlainSetUnderRandomOrders) {
  util::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    RbSeenSet seen;
    std::set<std::pair<ProcessId, std::uint64_t>> plain;
    for (int i = 0; i < 200; ++i) {
      const auto o = static_cast<ProcessId>(rng.uniform(0, 3));
      const auto s = static_cast<std::uint64_t>(rng.uniform(0, 40));
      EXPECT_EQ(seen.insert(o, s), plain.emplace(o, s).second);
    }
    EXPECT_EQ(seen.size(), plain.size());
    StateDigest d;
    seen.digest(d);
    EXPECT_EQ(d.value(), plain_digest(plain)) << "trial " << trial;
  }
}

TEST(FailurePattern, RejectsPlansWithTooManyCrashes) {
  CrashPlan plan;
  plan.crash_at(0, 5).crash_at(1, 6);
  EXPECT_THROW(FailurePattern(3, 1, plan), std::invalid_argument);
}

TEST(FailurePattern, TracksCrashSetOverTime) {
  CrashPlan plan;
  plan.crash_at(2, 50);
  FailurePattern fp(4, 2, plan);
  fp.record_crash(2, 50);
  EXPECT_FALSE(fp.crashed_by(2, 49));
  EXPECT_TRUE(fp.crashed_by(2, 50));
  EXPECT_EQ(fp.crashed_set(100), ProcSet({2}));
  EXPECT_EQ(fp.planned_correct(), ProcSet({0, 1, 3}));
  EXPECT_EQ(fp.correct_at_end(1000), ProcSet({0, 1, 3}));
}

}  // namespace
}  // namespace saf::sim
