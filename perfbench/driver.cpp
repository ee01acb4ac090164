// Benchmark driver: runs one workload and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-root DIR [--record-dir DIR]
//   perfbench_driver --selftest
//   perfbench_driver --list-metrics
//
// The last stdout line is the result object (correct / attempted /
// failed / metrics); the lines before it give the host fingerprint and
// the workload's own metrics under their documented names. perfbench/
// run.py builds this binary and is the command to use.
#include <unistd.h>

#include <atomic>
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "generator.h"
#include "harness.h"
#include "layers.h"
#include "rt/clock.h"
#include "rt/udp_link.h"
#include "svc/wire.h"
#include "sweep/bench_json.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver --workload NAME --seed N --seconds S"
               " --trace 0|1 --work-root DIR [--record-dir DIR]\n"
               "       perfbench_driver --selftest | --list-metrics\n";
  return 2;
}

// ---------------------------------------------------------------------
// Self-tests of the harness itself.

int failures = 0;
void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok   " : "  FAIL ") << what << "\n";
  if (!ok) ++failures;
}

void test_tail_percentile() {
  bool always_ten = true;
  std::size_t bad_n = 0;
  for (std::size_t n = 20; n <= 30000; ++n) {
    const double p = tail_percentile(n);
    if (p <= 0 || samples_beyond(n, p) < 10) {
      always_ten = false;
      bad_n = n;
      break;
    }
  }
  expect(always_ten, "the tail percentile leaves >= 10 samples beyond it"
                     " for every n in [20, 30000]" +
                         (always_ten ? "" : " (breaks at n=" +
                                                std::to_string(bad_n) + ")"));
  expect(tail_percentile(1000) == 99.0 && tail_percentile(15000) == 99.0,
         "the tail is p99 once p99 has ten samples beyond it");
  expect(tail_percentile(19) == 0, "fewer than 20 samples give no tail");
}

/// Generator against an in-process echo server that answers every
/// Submit at once. One injected 200 ms stall before request 100 must
/// show in the latency of every request due during the stall.
void test_open_loop_stall() {
  const std::uint16_t port = pick_free_ports(2, 7);
  expect(port != 0, "found free loopback ports");
  if (port == 0) return;
  std::atomic<bool> stop{false};
  std::thread server([&] {
    saf::rt::WallClock wall;
    saf::rt::UdpLinkParams lp;
    lp.endpoints = 2;
    lp.epoch_gating = false;
    saf::rt::UdpLink link(0, 1, port, wall, lp);
    std::vector<std::uint8_t> buf;
    while (!stop.load()) {
      link.wait_readable(5);
      link.poll([&](saf::ProcessId from, const std::uint8_t* d,
                    std::size_t len) {
        saf::svc::Submit sm;
        if (!saf::svc::decode_submit(d, len, &sm)) return;
        saf::svc::Reply rp;
        rp.req_seq = sm.req_seq;
        rp.instance = sm.req_seq;
        rp.decision = sm.value;
        buf.clear();
        saf::svc::encode_reply(rp, &buf);
        link.send(from, buf);
      });
      link.maintain();
    }
  });
  constexpr double kStallMs = 200;
  GenConfig g;
  g.n = 1;
  g.links = 1;
  g.total_slots = 1;
  g.base_port = port;
  g.rate = 1000;
  g.start_ms = now_ms() + 100;
  g.stop_submit_ms = g.start_ms + 600;
  g.end_ms = g.start_ms + 3000;
  g.before_send = [&](std::uint64_t i) {
    if (i == 100) std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(kStallMs)));
  };
  const GenResult r = run_generator(g);
  stop.store(true);
  server.join();

  bool all = r.ok && r.reqs.size() == 600;
  for (const Request& q : r.reqs) all = all && q.reply >= 0;
  expect(all, "all 600 requests were sent and answered");
  if (!all) return;
  const double stall_end = r.reqs[100].due + kStallMs;
  bool charged = true;
  for (std::size_t i = 100; i < 600 && r.reqs[i].due < stall_end - 5; ++i) {
    const double lat = r.reqs[i].reply - r.reqs[i].due;
    charged = charged && lat >= stall_end - r.reqs[i].due - 5;
  }
  expect(charged, "requests due during the stall carry the stall in their"
                  " latency (timed from the due time)");
  expect(r.reqs[100].reply - r.reqs[100].due >= kStallMs - 5,
         "the stalled request itself waited the whole stall");
  expect(r.reqs[50].reply - r.reqs[50].due < kStallMs / 2,
         "requests before the stall are not charged");
}

void test_catalogue() {
  std::vector<std::string> names;
  for (const MetricSpec& m : end_to_end_catalog()) names.push_back(m.name);
  for (const MetricSpec& m : per_layer_catalog()) names.push_back(m.name);
  std::sort(names.begin(), names.end());
  expect(std::adjacent_find(names.begin(), names.end()) == names.end(),
         "metric names are unique");
}

void test_host_scaling() {
  expect(to_reference({}) == 1, "no probes leave a time unscaled");
  expect(to_reference({kProbeRefMs, kProbeRefMs}) == 1,
         "probes at the reference speed leave a time unscaled");
  expect(to_reference({2 * kProbeRefMs, 2 * kProbeRefMs}) == 0.5,
         "a host twice as slow halves the time it measured");
  bool positive = true;
  for (int i = 0; i < 3; ++i) positive = positive && host_probe_ms() > 0;
  expect(positive, "the host probe runs repeatedly and takes time");
}

int selftest() {
  std::cout << "perfbench self-tests\n";
  test_tail_percentile();
  test_catalogue();
  test_host_scaling();
  test_open_loop_stall();
  std::cout << (failures == 0 ? "all passed\n" : "FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string record_dir;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--selftest") return selftest();
    if (a == "--list-metrics") {
      for (const MetricSpec& m : end_to_end_catalog()) {
        std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
      }
      for (const MetricSpec& m : per_layer_catalog()) {
        std::cout << "per_layer " << m.name << " " << m.unit << "\n";
      }
      return 0;
    }
    if (a == "--workload") {
      args.workload = next();
    } else if (a == "--seed") {
      args.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(next().c_str());
    } else if (a == "--trace") {
      const std::string v = next();
      trace = v == "1" ? 1 : v == "0" ? 0 : -1;
    } else if (a == "--work-root") {
      args.work_root = next();
    } else if (a == "--record-dir") {
      record_dir = next();
    } else {
      return usage("unknown argument " + a);
    }
  }
  if (trace < 0) return usage("--trace expects 0 or 1");
  if (args.seconds < 1) return usage("--seconds expects a number >= 1");
  if (args.work_root.empty()) return usage("--work-root is required");
  args.trace = trace == 1;

  const std::string bt = build_type();
  if (!optimized_build() || (bt != "Release" && bt != "RelWithDebInfo")) {
    std::cerr << "perfbench_driver: refusing to measure an unoptimised build"
                 " (build type '" << bt << "')\n";
    return 3;
  }
  const Host host = host_fingerprint();
  std::cout << "host nproc=" << host.nproc << " cpu=\"" << host.cpu_model
            << "\" kernel=" << host.kernel << " build=" << bt << "\n";

  RunResult res;
  try {
    if (args.workload == "svc-steady") {
      res = run_svc(args, false);
    } else if (args.workload == "svc-chaos") {
      res = run_svc(args, true);
    } else if (args.workload == "sim-n1024") {
      res = run_sim(args);
    } else if (args.workload == "dfs-kset") {
      res = run_dfs(args);
    } else {
      return usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }

  for (const auto& [name, m] : res.named) {
    std::cout << "  " << name << " = " << fmt_number(m.value) << " " << m.unit
              << "\n";
  }
  for (const std::string& e : res.errors) {
    std::cout << "  CHECK FAILED: " << e << "\n";
  }

  if (!record_dir.empty()) {
    saf::sweep::JsonWriter w;
    const auto values = [&w](const auto& list) {
      w.begin_object();
      for (const auto& [name, m] : list) w.key(name).value(m.value);
      w.end_object();
    };
    w.begin_object();
    w.key("workload").value(args.workload);
    w.key("seed").value(args.seed);
    w.key("seconds").value(args.seconds);
    w.key("trace").value(trace);
    w.key("host").begin_object();
    w.key("nproc").value(static_cast<std::int64_t>(host.nproc));
    w.key("cpu_model").value(host.cpu_model);
    w.key("kernel").value(host.kernel);
    w.end_object();
    w.key("build_type").value(bt);
    w.key("correct").value(res.correct);
    w.key("errors").begin_array();
    for (const std::string& e : res.errors) w.value(e);
    w.end_array();
    w.key("named");
    values(res.named);
    w.key("metrics");
    values(res.metrics);
    if (res.write_timeseries) {
      w.key("timeseries");
      res.write_timeseries(&w);
    }
    w.end_object();
    saf::sweep::write_file_atomic(
        record_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
            "-trace" + std::to_string(trace) + "-" + std::to_string(getpid()) +
            ".json",
        w.str() + "\n");
  }
  std::cout << result_line(res) << std::endl;
  return 0;
}
