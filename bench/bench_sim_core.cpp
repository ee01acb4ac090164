// Engine hot-path microbenchmarks (docs/performance.md).
//
// The first pair measures raw event post/dispatch throughput of the
// calendar queue against the engine's previous design — a binary-heap
// priority queue whose every event carries a heap-allocated closure
// owning a shared_ptr message — on the same workload. The second pair
// isolates the allocation story (arena bump vs make_shared per message).
// The next one drives the full simulator with a two-process ping-pong to
// put a number on end-to-end message round-trip latency. The last group
// isolates protocol layers: ProcSet word scans and one KSetCore round.
//
// items_per_second is events (respectively messages, round-trips) per
// second; BENCH_sim.json tracks the whole-protocol figures, this file
// the isolated engine costs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string_view>
#include <vector>

#include "core/kset_agreement.h"
#include "fd/oracle.h"
#include "sim/delay_policy.h"
#include "sim/event_queue.h"
#include "sim/message.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "util/arena.h"
#include "util/rng.h"

namespace {

using namespace saf;
using namespace saf::sim;

// --- event post/dispatch: calendar queue vs legacy heap ----------------
//
// Workload: a steady-state loop at `pending` queued events. Each
// dispatched event posts one successor a pseudo-random 1..16 instants
// ahead — the shape of message traffic under the repo's delay policies
// (small bounded delays, dense instants).

constexpr int kHops = 16;

struct BenchMsg final : Message {
  std::string_view tag() const override { return "bench"; }
};

void BM_CalendarQueuePostDispatch(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  EventQueue q;
  util::Arena arena;
  const Message* msg = arena.create<BenchMsg>();
  std::uint64_t seq = 0;
  util::Rng rng(7);
  std::vector<Time> delay(256);
  for (Time& d : delay) d = 1 + rng.uniform(0, kHops - 1);
  for (std::size_t i = 0; i < pending; ++i) {
    q.push(Event{delay[i % delay.size()], seq++, 0, 0, msg, {}});
  }
  std::uint64_t dispatched = 0;
  for (auto _ : state) {
    Event e = q.pop();
    benchmark::DoNotOptimize(e.msg);
    q.push(Event{e.time + delay[seq % delay.size()], seq, 0, 0, msg, {}});
    ++seq;
    ++dispatched;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(dispatched));
}
BENCHMARK(BM_CalendarQueuePostDispatch)->Arg(1 << 6)->Arg(1 << 10)->Arg(1 << 14);

/// The engine's previous event loop, reproduced: a binary heap ordered
/// by (time, seq) where every delivery is a std::function closure that
/// owns its message via shared_ptr.
void BM_LegacyHeapPostDispatch(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  struct LegacyEvent {
    Time time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const LegacyEvent& a, const LegacyEvent& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  std::priority_queue<LegacyEvent, std::vector<LegacyEvent>, Later> q;
  std::uint64_t seq = 0;
  util::Rng rng(7);
  std::vector<Time> delay(256);
  for (Time& d : delay) d = 1 + rng.uniform(0, kHops - 1);
  std::uint64_t sink = 0;
  auto post = [&](Time at) {
    auto msg = std::make_shared<const BenchMsg>();
    q.push(LegacyEvent{at, seq++, [msg, &sink] { sink += msg->sender; }});
  };
  for (std::size_t i = 0; i < pending; ++i) post(delay[i % delay.size()]);
  std::uint64_t dispatched = 0;
  for (auto _ : state) {
    const LegacyEvent& top = q.top();
    const Time now = top.time;
    top.fn();
    q.pop();
    post(now + delay[seq % delay.size()]);
    ++dispatched;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(dispatched));
}
BENCHMARK(BM_LegacyHeapPostDispatch)->Arg(1 << 6)->Arg(1 << 10)->Arg(1 << 14);

// --- message allocation: arena bump vs shared_ptr ----------------------

void BM_ArenaMessageCreate(benchmark::State& state) {
  util::Arena arena;
  std::uint64_t created = 0;
  for (auto _ : state) {
    const BenchMsg* m = arena.create<BenchMsg>();
    benchmark::DoNotOptimize(m);
    if (++created % 65536 == 0) {
      state.PauseTiming();
      arena.reset();  // the per-run wholesale free, amortized away
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(created));
}
BENCHMARK(BM_ArenaMessageCreate);

void BM_SharedPtrMessageCreate(benchmark::State& state) {
  std::uint64_t created = 0;
  for (auto _ : state) {
    std::shared_ptr<const Message> m = std::make_shared<const BenchMsg>();
    benchmark::DoNotOptimize(m);
    ++created;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(created));
}
BENCHMARK(BM_SharedPtrMessageCreate);

// --- end-to-end round-trip latency through the full engine -------------

struct PingMsg final : Message {
  std::string_view tag() const override { return "ping"; }
};

/// Two processes play ping-pong at the minimum legal delay; every
/// delivery (arena message, crash filter, digest-free observer path)
/// exercises the whole send->queue->dispatch->handler pipeline.
class PingPong : public Process {
 public:
  using Process::Process;
  ProtocolTask run() override {
    if (id() == 0) send_to(1 - id(), PingMsg{});
    co_return;
  }
  void on_message(const Message&) override {
    ++hops;
    send_to(1 - id(), PingMsg{});
  }
  std::uint64_t hops = 0;
};

void BM_SimulatorPingPong(benchmark::State& state) {
  std::uint64_t hops = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    SimConfig cfg;
    cfg.n = 2;
    cfg.t = 0;
    cfg.horizon = 20'000;
    Simulator sim(cfg, CrashPlan{}, std::make_unique<FixedDelay>(1));
    auto& a = static_cast<PingPong&>(
        sim.add_process(std::make_unique<PingPong>(0, 2, 0)));
    auto& b = static_cast<PingPong&>(
        sim.add_process(std::make_unique<PingPong>(1, 2, 0)));
    sim.run();
    hops += a.hops + b.hops;
    events += sim.events_processed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hops / 2));  // round trips
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorPingPong)->Unit(benchmark::kMillisecond);

/// The same workload with the structured trace on (ring sink + metrics,
/// default kind mask) — the traced-vs-untraced comparison row. The gated
/// baselines track BM_SimulatorPingPong, where no sink is installed and
/// every trace point compiles down to a null-pointer test; this row
/// bounds the cost a run pays when it opts in.
void BM_SimulatorPingPongTraced(benchmark::State& state) {
  std::uint64_t hops = 0;
  std::uint64_t events = 0;
  std::uint64_t traced = 0;
  for (auto _ : state) {
    SimConfig cfg;
    cfg.n = 2;
    cfg.t = 0;
    cfg.horizon = 20'000;
    Simulator sim(cfg, CrashPlan{}, std::make_unique<FixedDelay>(1));
    trace::RingSink sink(4096);
    trace::MetricsRegistry metrics;
    sim.set_trace(&sink, &metrics);
    auto& a = static_cast<PingPong&>(
        sim.add_process(std::make_unique<PingPong>(0, 2, 0)));
    auto& b = static_cast<PingPong&>(
        sim.add_process(std::make_unique<PingPong>(1, 2, 0)));
    sim.run();
    hops += a.hops + b.hops;
    events += sim.events_processed();
    traced += sink.total();
  }
  benchmark::DoNotOptimize(traced);
  state.SetItemsProcessed(static_cast<std::int64_t>(hops / 2));  // round trips
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorPingPongTraced)->Unit(benchmark::kMillisecond);

// --- ProcSet word-array scans ------------------------------------------

/// Population count over the multi-word membership bitmap at Arg()
/// members spread across the full id space — the inner loop of every
/// quorum-size check. Pins the 4-way unrolled independent-accumulator
/// scan (vs the naive single-chain loop it replaced).
void BM_ProcSetSize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<ProcSet> sets;
  util::Rng rng(7);
  for (int s = 0; s < 64; ++s) {
    ProcSet ps;
    for (ProcessId id = 0; id < n; ++id) {
      if (rng.uniform(0, 1) == 0) ps.insert(id);
    }
    ps.insert(n - 1);  // keep top_ at the full word count
    sets.push_back(ps);
  }
  std::uint64_t total = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    total += static_cast<std::uint64_t>(sets[i].size());
    i = (i + 1) % sets.size();
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProcSetSize)->Arg(64)->Arg(1024);

/// Intersection cardinality between query sets and per-instant alive
/// sets — the phibar checker's per-probe loop. Pins the fused
/// AND+popcnt scan (count_intersection) against materializing the
/// intersection and counting it in a second pass.
void BM_ProcSetIntersect(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<ProcSet> queries;
  std::vector<ProcSet> alive;
  util::Rng rng(11);
  for (int s = 0; s < 64; ++s) {
    ProcSet q, a;
    for (ProcessId id = 0; id < n; ++id) {
      if (rng.uniform(0, 1) == 0) q.insert(id);
      if (rng.uniform(0, 3) != 0) a.insert(id);
    }
    q.insert(n - 1);  // keep top_ at the full word count
    a.insert(n - 1);
    queries.push_back(q);
    alive.push_back(a);
  }
  std::uint64_t total = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    total += static_cast<std::uint64_t>(
        queries[i].count_intersection(alive[(i + 17) % alive.size()]));
    i = (i + 1) % queries.size();
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProcSetIntersect)->Arg(64)->Arg(1024);

/// Find-first (lowest live id — the Ω leader projection) when the only
/// member sits at the high end, forcing a scan over every empty word.
void BM_ProcSetMin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ProcSet ps;
  ps.insert(n - 1);
  std::uint64_t total = 0;
  for (auto _ : state) {
    total += static_cast<std::uint64_t>(ps.min());
    benchmark::DoNotOptimize(ps);
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProcSetMin)->Arg(64)->Arg(1024);

// --- one KSetCore round in isolation -----------------------------------

class FixedLeaders final : public fd::LeaderOracle {
 public:
  explicit FixedLeaders(ProcSet l) : l_(l) {}
  ProcSet trusted(ProcessId, Time) const override { return l_; }

 private:
  ProcSet l_;
};

/// A process that runs nothing: it only completes the simulator's n.
class Silent final : public Process {
 public:
  using Process::Process;
  void boot() override {}
};

/// One round of Fig 3 at process 0 under a perfect Ω_1 = {0}, the shape
/// of every process's work in the sweep_runner scale runs (t = 3, one
/// round): n phase-1 deliveries (the core broadcasts its phase-2 message
/// once n - t have arrived) and n phase-2 deliveries, all non-bottom (it
/// then R-broadcasts its decision). Deliveries are injected at one
/// instant, so the sends are only queued and no other process runs; the
/// timed region is the receiver's state updates, its wait predicates and
/// its broadcasts. items_per_second is deliveries per second.
void BM_KSetCoreRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = 3;
  const FixedLeaders omega(ProcSet{0});
  for (auto _ : state) {
    SimConfig cfg;
    cfg.n = n;
    cfg.t = t;
    cfg.batched_broadcasts = true;  // as in the scale runs
    Simulator sim(cfg, CrashPlan{}, std::make_unique<FixedDelay>(1));
    auto& p = static_cast<core::KSetProcess&>(sim.add_process(
        std::make_unique<core::KSetProcess>(0, n, t, omega, 100)));
    for (ProcessId i = 1; i < n; ++i) {
      sim.add_process(std::make_unique<Silent>(i, n, t));
    }
    sim.pump(0);  // boot: process 0 broadcasts its phase-1 message
    std::vector<const Message*> phase1, phase2;
    for (ProcessId i = 0; i < n; ++i) {
      auto* m1 = sim.arena().create<core::Phase1Msg>(1, ProcSet{0}, 100 + i);
      auto* m2 = sim.arena().create<core::Phase2Msg>(1, 100);
      m1->sender = m2->sender = i;
      phase1.push_back(m1);
      phase2.push_back(m2);
    }
    const auto start = std::chrono::steady_clock::now();
    for (const Message* m : phase1) sim.inject_deliver(0, m);
    sim.pump(0);
    for (const Message* m : phase2) sim.inject_deliver(0, m);
    sim.pump(0);
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    // Three broadcasts: phase 1 at boot, phase 2, and the decision.
    if (sim.network().total_sent() != 3 * static_cast<std::uint64_t>(n) ||
        p.core().rounds_started() != 1) {
      state.SkipWithError("KSetCore round did not reach its decision");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          n);
}
BENCHMARK(BM_KSetCoreRound)->Arg(64)->Arg(1024)->UseManualTime();

}  // namespace

BENCHMARK_MAIN();
