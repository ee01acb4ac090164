// svc-steady and svc-chaos: a loopback decision-service cluster
// (rt::run_cluster + svc::run_server, n=5, t=2, k=2) under open-loop
// load from generator.h; svc-chaos adds one seeded SIGKILL/restart of
// a server inside the measured window.
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "generator.h"
#include "harness.h"
#include "layers.h"
#include "rt/chaos.h"
#include "rt/cluster.h"
#include "rt/udp_link.h"
#include "svc/client.h"
#include "svc/server.h"
#include "sweep/bench_json.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kN = 5;
constexpr int kT = 2;
constexpr int kK = 2;
/// Offered load: near the seed's knee on a 4-core host, with p99 still
/// under kLatencyLimitMs, so a capacity gain shows as lower p99.
constexpr double kRate = 2000;
constexpr double kLatencyLimitMs = 25;
constexpr double kLeadMs = 500;   ///< launch -> measured window
constexpr double kDrainMs = 700;  ///< window end -> stop waiting
constexpr saf::Time kLingerMs = 250;
constexpr double kResubmitMs = 300;
constexpr double kSampleMs = 1000;
/// Set-up probes per run; with the measured cluster's own first reply
/// they give set-up.
constexpr int kSetupProbes = 50;
/// The link's first retransmit timeout. A launch that lost a datagram
/// to a peer that had not bound yet takes at least this long.
const double kRtoMs = static_cast<double>(saf::rt::UdpLinkParams{}.rto_base);

// ---------------------------------------------------------------------
// Node-side sampler: runs inside each forked server process, next to
// svc::run_server, and appends "t_ms rss_kb hwm_kb user_ms sys_ms"
// lines (one per second on the driver's timeline, plus start and end)
// to its own file. Lines are flushed as written, so a SIGKILLed life
// leaves its samples up to the kill.

class Sampler {
 public:
  Sampler(const std::string& path, double origin_ms)
      : out_(std::fopen(path.c_str(), "w")), origin_(origin_ms) {
    sample();
    thread_ = std::thread([this] { loop(); });
  }
  ~Sampler() {
    stop_.store(true);
    thread_.join();
    sample();
    if (out_ != nullptr) std::fclose(out_);
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

 private:
  void sample() {
    if (out_ == nullptr) return;
    const auto [rss, hwm] = rss_kb();
    const auto [user, sys] = cpu_ms();
    std::fprintf(out_, "%.3f %llu %llu %.3f %.3f\n", now_ms(),
                 static_cast<unsigned long long>(rss),
                 static_cast<unsigned long long>(hwm), user, sys);
    std::fflush(out_);
  }
  void loop() {
    double next = origin_ + kSampleMs *
                                (std::floor((now_ms() - origin_) / kSampleMs) +
                                 1);
    while (!stop_.load()) {
      if (now_ms() >= next) {
        sample();
        next += kSampleMs;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  std::FILE* out_;
  double origin_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct NodeSample {
  double t = 0, rss_kb = 0, hwm_kb = 0, user = 0, sys = 0;
};
struct NodeLife {
  int id = -1;
  std::vector<NodeSample> s;
};

std::vector<NodeLife> read_samples(const std::string& dir) {
  std::vector<NodeLife> lives;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return lives;
  while (dirent* e = readdir(d)) {
    int id = -1, pid = -1;
    if (std::sscanf(e->d_name, "samples_%d_%d.txt", &id, &pid) != 2) continue;
    NodeLife life;
    life.id = id;
    std::ifstream in(dir + "/" + e->d_name);
    NodeSample x;
    while (in >> x.t >> x.rss_kb >> x.hwm_kb >> x.user >> x.sys) {
      life.s.push_back(x);
    }
    if (!life.s.empty()) lives.push_back(std::move(life));
  }
  closedir(d);
  return lives;
}

/// CPU ms (user + sys, or one of them) a life spent inside [a, b],
/// interpolated between its samples.
double life_cpu(const NodeLife& l, double a, double b, bool user, bool sys) {
  const auto at = [&](double t) {
    const auto val = [&](const NodeSample& x) {
      return (user ? x.user : 0.0) + (sys ? x.sys : 0.0);
    };
    if (t <= l.s.front().t) return val(l.s.front());
    if (t >= l.s.back().t) return val(l.s.back());
    for (std::size_t i = 1; i < l.s.size(); ++i) {
      if (l.s[i].t >= t) {
        const NodeSample& p = l.s[i - 1];
        const NodeSample& q = l.s[i];
        const double f = q.t > p.t ? (t - p.t) / (q.t - p.t) : 1.0;
        return val(p) + f * (val(q) - val(p));
      }
    }
    return val(l.s.back());
  };
  return std::max(0.0, at(b) - at(a));
}

// ---------------------------------------------------------------------

struct NodeCounters {
  std::uint64_t frontier = 0;
  std::vector<std::int64_t> log;
  std::map<std::string, double> num;  ///< scalar fields of the result
};

struct Pass {
  double launch = 0, ws = 0, we = 0, end = 0;  ///< now_ms timeline
  double setup_ms = -1;  ///< launch -> first reply
  GenResult gen;
  saf::rt::ClusterResult cluster;
  std::vector<NodeCounters> nodes;  ///< by id; empty log if unreadable
  std::vector<NodeLife> lives;
  double kill_at = -1;  ///< absolute, -1 without chaos
  int victim = -1;
  std::string dir;
};

saf::rt::ClusterConfig cluster_config(const std::string& dir,
                                      std::uint16_t port,
                                      std::uint64_t seed) {
  saf::rt::ClusterConfig cfg;
  cfg.n = kN;
  cfg.t = kT;
  cfg.k = kK;
  cfg.protocol = "svc";
  cfg.base_port = port;
  cfg.seed = seed;
  cfg.out_dir = dir;
  cfg.svc_client_slots = 4;
  cfg.linger_ms = kLingerMs;
  cfg.contract_checker = saf::svc::check_service_contract;
  return cfg;
}

int client_links() {
  return static_cast<int>(std::clamp(host_fingerprint().nproc, 1L, 4L));
}

/// Set-up is bimodal: a protocol datagram sent before its peer has bound
/// waits out kRtoMs, so a launch takes either a few ms or more than
/// that. The share of slow launches
/// varies, so a median over both modes jumps between them from run to
/// run. Set-up is the median of the launches that beat the timeout (of
/// all of them if none did); work moved into start-up still raises it.
double setup_median(const std::vector<double>& setups) {
  std::vector<double> fast;
  for (const double s : setups) {
    if (s < kRtoMs) fast.push_back(s);
  }
  return median(fast.empty() ? setups : fast);
}

/// Launch -> first reply of a fresh cluster, which is then torn down.
double probe_setup(const std::string& dir, std::uint64_t seed) {
  const std::uint16_t port = pick_free_ports(kN + 4, seed);
  if (port == 0) return -1;
  saf::rt::ClusterConfig cfg = cluster_config(dir, port, seed);
  cfg.run_for_ms = 20'000;
  cfg.node_runner = saf::svc::run_server;
  std::atomic<bool> stop{false};
  cfg.stop = &stop;
  GenConfig g;
  g.n = kN;
  g.links = client_links();
  g.total_slots = cfg.svc_client_slots;
  g.base_port = port;
  g.rate = kRate;
  g.seed = seed;
  g.stop_on_first_reply = true;
  g.first_reply = &stop;
  const double launch = now_ms();
  g.start_ms = launch;
  g.stop_submit_ms = launch + 10'000;
  g.end_ms = launch + 10'000;
  GenResult gr;
  std::thread gen([&] {
    gr = run_generator(g);
    stop.store(true);  // also on timeout or a bind failure
  });
  saf::rt::run_cluster(cfg);
  gen.join();
  return gr.first_reply_ms < 0 ? -1 : gr.first_reply_ms - launch;
}

/// One measured cluster. With `chaos`, one server is SIGKILLed and
/// restarted inside the window; the seed picks the victim and the time.
Pass run_pass(const std::string& dir, std::uint64_t seed, double window_ms,
              bool chaos, bool traced) {
  Pass p;
  p.dir = dir;
  const std::uint16_t port = pick_free_ports(kN + 4, seed);
  if (port == 0) return p;
  saf::rt::ClusterConfig cfg = cluster_config(dir, port, seed);
  const double node_budget = kLeadMs + window_ms + kDrainMs + 300;
  cfg.run_for_ms = static_cast<saf::Time>(node_budget);
  if (chaos) {
    // One kill 1/4 to 1/2 into the window, restarted 400 ms later; it
    // recovers through its WAL and snapshot catch-up.
    cfg.chaos.kills = 1;
    cfg.chaos.window_start_ms =
        static_cast<saf::Time>(kLeadMs + 0.25 * window_ms);
    cfg.chaos.window_span_ms = static_cast<saf::Time>(0.25 * window_ms);
    cfg.chaos.restart_delay_ms = 400;
    cfg.chaos.seed = saf::util::derive_seed(seed, "chaos");
  }

  p.launch = now_ms();
  p.ws = p.launch + kLeadMs;
  p.we = p.ws + window_ms;
  p.end = p.we + kDrainMs;
  const double node_end = p.launch + node_budget;
  const double origin = p.launch;
  cfg.node_runner = [dir, node_end, origin,
                     traced](const saf::rt::NodeConfig& base) -> int {
    saf::rt::NodeConfig nc = base;
    // A restarted life serves only what is left of the cluster's window.
    nc.run_for_ms = static_cast<saf::Time>(
        std::max(1000.0, node_end - now_ms()));
    const std::string tag =
        std::to_string(nc.id) + "_" + std::to_string(getpid());
    if (traced) nc.metrics_path = dir + "/metrics_" + tag + ".json";
    Sampler sampler(dir + "/samples_" + tag + ".txt", origin);
    return saf::svc::run_server(nc);
  };

  GenConfig g;
  g.n = kN;
  g.links = client_links();
  g.total_slots = cfg.svc_client_slots;
  g.base_port = port;
  g.rate = kRate;
  g.start_ms = p.launch;
  g.stop_submit_ms = p.we;
  g.end_ms = p.end;
  g.resubmit_ms = kResubmitMs;
  g.seed = seed;
  std::thread gen([&] { p.gen = run_generator(g); });
  p.cluster = saf::rt::run_cluster(cfg);
  gen.join();
  if (p.gen.first_reply_ms >= 0) p.setup_ms = p.gen.first_reply_ms - p.launch;
  for (const saf::rt::ChaosEvent& e : p.cluster.chaos_events) {
    p.kill_at = p.launch + static_cast<double>(e.killed_at_ms);
    p.victim = e.victim;
  }

  p.nodes.resize(kN);
  for (int id = 0; id < kN; ++id) {
    try {
      const saf::sweep::FlatJson j = saf::sweep::load_json_numbers(
          saf::rt::cluster_node_result_path(cfg, id));
      NodeCounters& nc = p.nodes[id];
      for (const auto& [k, v] : j) {
        if (k.find('.') == std::string::npos) nc.num[k] = v;
      }
      nc.frontier = static_cast<std::uint64_t>(nc.num["svc_frontier"]);
      for (std::uint64_t i = 0; i < nc.frontier; ++i) {
        const auto it = j.find("svc_decisions." + std::to_string(i));
        if (it == j.end()) break;
        nc.log.push_back(static_cast<std::int64_t>(it->second));
      }
    } catch (const std::exception&) {
      // Reported by the cluster's own contract check.
    }
  }
  p.lives = read_samples(dir);
  return p;
}

// ---------------------------------------------------------------------
// Correctness: the service contract, plus every reply against the
// decided logs the nodes wrote.

void check_pass(const Pass& p, RunResult* out) {
  if (!p.gen.ok) out->fail("generator could not bind its client links");
  if (!p.cluster.contract_ok()) {
    std::string why = "service contract: " + p.cluster.detail;
    for (const std::string& v : p.cluster.violations) why += "; " + v;
    out->fail(why);
  }
  if (p.setup_ms < 0) out->fail("no reply arrived in the whole window");
  // Values per instance: every node's decided log plus every reply.
  std::map<std::uint64_t, std::set<std::int64_t>> seen;
  std::size_t bad = 0;
  std::string first_bad;
  for (const Request& r : p.gen.reqs) {
    if (r.reply < 0) continue;
    std::set<std::int64_t>& vals = seen[r.instance];
    bool decided = false;
    for (const NodeCounters& nc : p.nodes) {
      if (r.instance < nc.log.size()) {
        vals.insert(nc.log[r.instance]);
        decided = true;
      }
    }
    vals.insert(r.decision);
    // A node that was never killed wrote the log its replies came from.
    // The killed node's pre-kill log is gone (its restarted life adopts
    // peers' decisions), so its replies are held to the k bound only.
    bool ok = decided && r.replier >= 0 && r.replier < kN;
    if (ok && r.replier != p.victim) {
      const std::vector<std::int64_t>& log = p.nodes[r.replier].log;
      ok = r.instance < log.size() && log[r.instance] == r.decision;
    }
    if (!ok && bad++ == 0) {
      first_bad = "reply for instance " + std::to_string(r.instance) +
                  " from node " + std::to_string(r.replier) + " says " +
                  std::to_string(r.decision) +
                  ", which that node's decided log does not hold";
    }
  }
  if (bad > 0) out->fail(first_bad + " (" + std::to_string(bad) + " replies)");
  for (const auto& [inst, vals] : seen) {
    if (static_cast<int>(vals.size()) > kK) {
      out->fail("instance " + std::to_string(inst) + " has " +
                std::to_string(vals.size()) +
                " distinct values across logs and replies (k=" +
                std::to_string(kK) + ")");
      break;
    }
  }
}

struct Observed {
  std::vector<double> lat;  ///< window requests; unanswered = end - due
  std::uint64_t submitted = 0, unanswered = 0;
  double decisions_per_sec = 0;
  double drift_ratio = 0;
  double outage_ms = 0;  ///< chaos: after the kill; steady: longest gap
  double peak_rss_mb = 0;
  std::vector<double> lag;  ///< send - due, window requests
  std::vector<std::pair<double, std::uint64_t>> replies;  ///< (t, instance)
};

/// Decided frontier seen by the clients at time t: one past the highest
/// instance any reply received by t carried.
std::uint64_t frontier_at(const Observed& o, double t) {
  std::uint64_t f = 0;
  for (const auto& [rt, inst] : o.replies) {
    if (rt > t) break;
    f = std::max(f, inst + 1);
  }
  return f;
}

Observed observe(const Pass& p) {
  Observed o;
  for (const Request& r : p.gen.reqs) {
    ++o.submitted;
    if (r.reply < 0) ++o.unanswered;
    if (r.reply >= 0) o.replies.emplace_back(r.reply, r.instance);
    if (r.due < p.ws || r.due >= p.we) continue;
    o.lat.push_back(r.reply >= 0 ? r.reply - r.due : p.end - r.due);
    o.lag.push_back(r.sent - r.due);
  }
  std::sort(o.replies.begin(), o.replies.end());
  const double win_s = (p.we - p.ws) / 1e3;
  o.decisions_per_sec =
      static_cast<double>(frontier_at(o, p.we) - frontier_at(o, p.ws)) / win_s;
  std::vector<double> per_second;
  for (double t = p.ws; t + 1000 <= p.we + 1e-6; t += 1000) {
    per_second.push_back(static_cast<double>(frontier_at(o, t + 1000) -
                                             frontier_at(o, t)));
  }
  o.drift_ratio = fitted_drift(per_second);
  const double from = p.kill_at >= 0 ? p.kill_at : p.ws;
  double prev = from;
  for (const auto& [t, inst] : o.replies) {
    if (t < from) continue;
    if (t > p.we) break;
    o.outage_ms = std::max(o.outage_ms, t - prev);
    prev = t;
  }
  double hwm = rss_kb().second;
  for (const NodeLife& l : p.lives) hwm = std::max(hwm, l.s.back().hwm_kb);
  o.peak_rss_mb = hwm / 1024.0;
  return o;
}

/// The per-second timeseries of a pass for the run's record: decisions
/// from the reply instance ids, RSS and CPU of every node life.
std::function<void(saf::sweep::JsonWriter*)> timeseries(const Pass& p,
                                                        const Observed& o) {
  std::vector<std::uint64_t> decisions;
  const int secs = static_cast<int>(std::ceil((p.end - p.launch) / 1e3));
  for (int k = 0; k < secs; ++k) {
    const double a = p.launch + 1e3 * k;
    decisions.push_back(frontier_at(o, a + 1e3) - frontier_at(o, a));
  }
  return [decisions, lives = p.lives, launch = p.launch, ws = p.ws,
          we = p.we](saf::sweep::JsonWriter* w) {
    w->begin_object();
    w->key("origin").value("launch");
    w->key("window_start_s").value((ws - launch) / 1e3);
    w->key("window_end_s").value((we - launch) / 1e3);
    w->key("decisions").begin_array();
    for (const std::uint64_t d : decisions) w->value(d);
    w->end_array();
    w->key("nodes").begin_array();
    for (const NodeLife& l : lives) {
      w->begin_object();
      w->key("id").value(l.id);
      w->key("t_s").begin_array();
      for (const NodeSample& x : l.s) w->value((x.t - launch) / 1e3);
      w->end_array();
      w->key("rss_mb").begin_array();
      for (const NodeSample& x : l.s) w->value(x.rss_kb / 1024.0);
      w->end_array();
      w->key("cpu_ms").begin_array();
      for (const NodeSample& x : l.s) w->value(x.user + x.sys);
      w->end_array();
      w->end_object();
    }
    w->end_array();
    w->end_object();
  };
}

double sum_field(const Pass& p, const char* key) {
  double s = 0;
  for (const NodeCounters& nc : p.nodes) {
    const auto it = nc.num.find(key);
    if (it != nc.num.end()) s += it->second;
  }
  return s;
}

/// Per-layer ledger of a traced pass.
void fill_layers(const Pass& p, const Observed& o, const RunArgs& args,
                 Ledger* led) {
  std::uint64_t frontier = 0;
  const std::vector<std::int64_t>* longest = nullptr;
  for (const NodeCounters& nc : p.nodes) {
    if (longest == nullptr || nc.log.size() > longest->size()) {
      longest = &nc.log;
    }
    frontier = std::max<std::uint64_t>(frontier, nc.frontier);
  }
  const double dec = std::max<double>(1, static_cast<double>(frontier));
  const double dgrams = sum_field(p, "datagrams_sent");
  const double frames = sum_field(p, "frames_sent");
  const double sys_calls =
      sum_field(p, "syscalls_send") + sum_field(p, "syscalls_recv");
  led->set("rt.datagrams_per_decision", dgrams / dec);
  led->set("rt.frames_per_datagram", dgrams > 0 ? frames / dgrams : 0);
  led->set("rt.syscalls_per_decision", sys_calls / dec);
  led->set("rt.acks_per_frame",
           frames > 0 ? sum_field(p, "acks_sent") / frames : 0);
  led->set("rt.retransmit_ratio",
           frames > 0 ? sum_field(p, "retransmits") / frames : 0);
  led->set("rt.window_stalls_per_decision",
           sum_field(p, "window_stalls") / dec);
  const double batches = sum_field(p, "svc_batches");
  led->set("svc.proposals_per_batch",
           batches > 0 ? sum_field(p, "svc_proposals_received") / batches : 0);
  led->set("svc.snap_requests", sum_field(p, "svc_snap_requests"));
  led->set("svc.snapshot_adopted", sum_field(p, "svc_snapshot_adopted"));
  led->set("svc.outage_ms", o.outage_ms);
  led->set("svc.request_fail_ratio",
           o.submitted > 0 ? static_cast<double>(o.unanswered) /
                                 static_cast<double>(o.submitted)
                           : 0);
  const double events = sum_field(p, "events_processed");
  led->set("core.events_per_decision", events / dec / kN);

  // Unit costs of the layers' public functions, on this run's inputs.
  std::vector<std::int64_t> values;
  for (const Request& r : p.gen.reqs) values.push_back(r.value);
  const UnitCosts uc = time_unit_costs(
      args.seed, values, longest != nullptr ? *longest : values, frontier,
      p.dir);
  uc.fill(led);

  // Node processes over the measured window.
  const double win_dec = std::max(1.0, o.decisions_per_sec * (p.we - p.ws) / 1e3);
  double user = 0, sys = 0;
  std::vector<double> slopes;
  double life_cpu_total = 0;
  for (const NodeLife& l : p.lives) {
    user += life_cpu(l, p.ws, p.we, true, false);
    sys += life_cpu(l, p.ws, p.we, false, true);
    life_cpu_total += l.s.back().user + l.s.back().sys;
    if (l.s.front().t <= p.ws && l.s.back().t >= p.we) {
      std::vector<double> x, y;
      for (const NodeSample& s : l.s) {
        if (s.t < p.ws || s.t > p.we) continue;
        x.push_back(s.t / 1e3);
        y.push_back(s.rss_kb / 1024.0);
      }
      slopes.push_back(slope(x, y));
    }
  }
  led->set("node.user_ms_per_decision", user / win_dec);
  led->set("node.sys_ms_per_decision", sys / win_dec);
  led->set("node.idle_share", 1.0 - (user + sys) / (kN * (p.we - p.ws)));
  double mean_slope = 0;
  for (double s : slopes) mean_slope += s;
  led->set("node.rss_slope_mb_per_s",
           slopes.empty() ? 0 : mean_slope / static_cast<double>(slopes.size()));
  // CPU the timed layers account for: counts the nodes report times the
  // unit costs measured above.
  const double attributed_ms =
      1e-6 * (sum_field(p, "frames_sent") * uc.core.encode_ns +
              sum_field(p, "frames_received") * uc.core.decode_ns +
              sum_field(p, "syscalls_send") * uc.link.flush_ns +
              sum_field(p, "syscalls_recv") * uc.link.poll_ns +
              events * uc.core.event_ns +
              sum_field(p, "svc_proposals_received") * uc.wire.decode_ns +
              sum_field(p, "svc_proposals_served") * uc.wire.encode_ns) +
      // With chaos on, every node journals its frontier each 16 decisions.
      1e-3 * (p.kill_at >= 0 ? kN * dec / 16.0 * uc.wal_store_us : 0);
  led->set("node.unattributed_share",
           life_cpu_total > 0 ? 1.0 - attributed_ms / life_cpu_total : 0);
  led->set("gen.lag_p99_ms", saf::svc::latency_percentile(o.lag, 99));
  led->set("gen.samples", static_cast<double>(o.lat.size()));
}

}  // namespace

RunResult run_svc(const RunArgs& args, bool chaos) {
  RunResult out;
  const std::string dir =
      make_run_dir(args.work_root, chaos ? "svc-chaos" : "svc-steady");
  // One long-lived cluster serves the whole window, so the service ages
  // across it: a slowdown or a leak as the decided log grows shows in
  // decisions_per_sec, drift_ratio, peak_rss_mb and the RSS slope.
  const double window_ms = args.seconds * 1e3;

  std::vector<double> setups;
  if (!args.trace) {
    // Set-up is measured several times: probe clusters torn down at
    // their first reply, then the measured cluster.
    for (int i = 0; i < kSetupProbes; ++i) {
      const std::string pdir = dir + "/probe" + std::to_string(i);
      const double s = probe_setup(pdir, saf::util::derive_seed(args.seed, i));
      if (s < 0) {
        out.fail("a set-up probe cluster sent no reply within 10 s");
      } else {
        setups.push_back(s);
      }
    }
  }
  const Pass p = run_pass(dir + "/measured",
                          saf::util::derive_seed(args.seed, "measured"),
                          window_ms, chaos, false);
  check_pass(p, &out);
  const Observed o = observe(p);
  if (p.setup_ms >= 0) setups.push_back(p.setup_ms);
  if (chaos && p.kill_at < 0) out.fail("the scheduled kill never fired");
  if (chaos && sum_field(p, "svc_snapshot_adopted") == 0) {
    out.fail("the restarted server adopted no snapshot decisions");
  }
  out.attempted = o.submitted;
  out.failed = o.unanswered;
  out.write_timeseries = timeseries(p, o);
  const double setup_s = setup_median(setups) / 1e3;
  const double p50 = saf::svc::latency_percentile(o.lat, 50);

  out.add_named("setup_s", setup_s, "s");
  out.add_named("setup_samples", static_cast<double>(setups.size()), "count");
  const auto slow = std::count_if(setups.begin(), setups.end(),
                                  [](double s) { return s >= kRtoMs; });
  out.add_named("setup_retransmit_share",
                setups.empty() ? 0
                               : static_cast<double>(slow) /
                                     static_cast<double>(setups.size()),
                "ratio");
  out.add_named("decisions_per_sec", o.decisions_per_sec, "1/s");
  out.add_named("client_p50_ms", p50, "ms");
  // The tail is reported only when it has ten samples beyond it.
  const double tail_p = tail_percentile(o.lat.size());
  if (tail_p > 0) {
    const double tail = saf::svc::latency_percentile(o.lat, tail_p);
    out.add_named("client_p" + fmt_number(tail_p) + "_ms", tail, "ms");
    out.add_named("client_samples_beyond_tail",
                  static_cast<double>(samples_beyond(o.lat.size(), tail_p)),
                  "count");
    out.add_named("client_p99_within_limit", tail <= kLatencyLimitMs ? 1 : 0,
                  "bool");
  }
  out.add_named("client_samples", static_cast<double>(o.lat.size()), "count");
  out.add_named("request_fail_ratio",
                o.submitted > 0 ? static_cast<double>(o.unanswered) /
                                      static_cast<double>(o.submitted)
                                : 0,
                "ratio");
  out.add_named("drift_ratio", o.drift_ratio, "ratio");
  out.add_named(chaos ? "outage_ms" : "max_reply_gap_ms", o.outage_ms, "ms");
  out.add_named("peak_rss_mb", o.peak_rss_mb, "MB");
  out.add_named("offered_rate", kRate, "1/s");
  out.add_named("generator_nice", p.gen.nice, "nice");

  if (!args.trace) {
    out.add("setup_s", setup_s, "s");
    out.add("throughput_per_s", o.decisions_per_sec, "1/s");
    out.add("latency_ms", p50, "ms");
    out.add("peak_rss_mb", o.peak_rss_mb, "MB");
  } else {
    // A second cluster of the same age range, traced; the untraced one
    // above is the reference for the tracing overhead.
    const Pass traced =
        run_pass(dir + "/traced", saf::util::derive_seed(args.seed, "traced"),
                 window_ms, chaos, true);
    check_pass(traced, &out);
    const Observed to = observe(traced);
    out.attempted += to.submitted;
    out.failed += to.unanswered;
    Ledger led;
    fill_layers(traced, to, args, &led);
    led.set("trace.overhead_share",
            o.decisions_per_sec > 0
                ? 1.0 - to.decisions_per_sec / o.decisions_per_sec
                : 0);
    out.metrics = led.entries();
  }
  remove_tree(dir);
  return out;
}

}  // namespace perfbench
