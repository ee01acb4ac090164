#include "layers.h"

#include <algorithm>
#include <stdexcept>

#include "core/kset_agreement.h"
#include "rt/chaos.h"
#include "rt/clock.h"
#include "rt/codec.h"
#include "rt/udp_link.h"
#include "svc/wire.h"
#include "util/arena.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/// Each unit cost repeats its operation for at least this long.
constexpr double kTimeMs = 60;

/// Keeps a computed value observable so the timed loop is not elided.
volatile std::uint64_t g_sink = 0;

template <typename Fn>
double ns_per_call(std::size_t calls_per_pass, Fn&& pass) {
  std::uint64_t calls = 0;
  const double t0 = now_ms();
  double t = t0;
  while (t - t0 < kTimeMs) {
    pass();
    calls += calls_per_pass;
    t = now_ms();
  }
  return calls > 0 ? (t - t0) * 1e6 / static_cast<double>(calls) : 0;
}

saf::core::KSetRunConfig instance_config(std::uint64_t seed) {
  saf::core::KSetRunConfig cfg;
  cfg.n = 5;
  cfg.t = 2;
  cfg.k = cfg.z = 2;
  cfg.seed = seed;
  cfg.perfect_oracle = true;  // a settled detector, as in a running service
  return cfg;
}

CoreCosts time_core_and_codec(std::uint64_t seed) {
  CoreCosts c;
  // The messages one instance exchanges, as encoded bytes.
  std::vector<std::vector<std::uint8_t>> wire;
  saf::core::KSetRunConfig cap = instance_config(seed);
  cap.delivery_observer = [&](saf::Time, saf::ProcessId,
                              const saf::sim::Message& m) {
    std::vector<std::uint8_t> b;
    if (saf::rt::encode_message(m, &b)) wire.push_back(std::move(b));
  };
  saf::core::run_kset_agreement(cap);
  if (wire.empty()) throw std::runtime_error("instance sent no messages");

  std::uint64_t runs = 0, events = 0, messages = 0;
  const double t0 = now_ms();
  double t = t0;
  while (t - t0 < kTimeMs * 2) {
    const saf::core::KSetRunResult r = saf::core::run_kset_agreement(
        instance_config(saf::util::derive_seed(seed, runs)));
    ++runs;
    events += r.events_processed;
    messages += r.total_messages;
    t = now_ms();
  }
  c.kset_instance_us = (t - t0) * 1e3 / static_cast<double>(runs);
  c.events_per_instance =
      static_cast<double>(events) / static_cast<double>(runs);
  c.messages_per_instance =
      static_cast<double>(messages) / static_cast<double>(runs);
  c.event_ns = (t - t0) * 1e6 / static_cast<double>(events);

  saf::util::Arena keep;
  std::vector<const saf::sim::Message*> msgs;
  for (const auto& b : wire) {
    msgs.push_back(saf::rt::decode_message(b.data(), b.size(), keep));
    if (msgs.back() == nullptr) throw std::runtime_error("codec round trip");
  }
  std::vector<std::uint8_t> out;
  c.encode_ns = ns_per_call(msgs.size(), [&] {
    for (const saf::sim::Message* m : msgs) {
      out.clear();
      saf::rt::encode_message(*m, &out);
      g_sink = g_sink + out.size();
    }
  });
  saf::util::Arena scratch;
  c.decode_ns = ns_per_call(wire.size(), [&] {
    for (const auto& b : wire) {
      g_sink = g_sink + (saf::rt::decode_message(b.data(), b.size(),
                                                 scratch) != nullptr);
    }
    scratch.reset();
  });
  return c;
}

WireCosts time_svc_wire(const std::vector<std::int64_t>& values,
                        const std::vector<std::int64_t>& log) {
  WireCosts w;
  const std::size_t m = std::min<std::size_t>(values.size(), 4096);
  std::vector<saf::svc::Submit> subs(m);
  std::vector<saf::svc::Reply> reps(m);
  for (std::size_t i = 0; i < m; ++i) {
    subs[i].req_seq = i + 1;
    subs[i].value = values[i];
    reps[i].req_seq = i + 1;
    reps[i].instance = i;
    reps[i].decision = log.empty() ? values[i] : log[i % log.size()];
  }
  std::vector<std::vector<std::uint8_t>> enc_s(m), enc_r(m);
  for (std::size_t i = 0; i < m; ++i) {
    saf::svc::encode_submit(subs[i], &enc_s[i]);
    saf::svc::encode_reply(reps[i], &enc_r[i]);
  }
  std::vector<std::uint8_t> out;
  w.encode_ns = ns_per_call(2 * m, [&] {
    for (std::size_t i = 0; i < m; ++i) {
      out.clear();
      saf::svc::encode_submit(subs[i], &out);
      saf::svc::encode_reply(reps[i], &out);
      g_sink = g_sink + out.size();
    }
  });
  w.decode_ns = ns_per_call(2 * m, [&] {
    saf::svc::Submit s;
    saf::svc::Reply r;
    for (std::size_t i = 0; i < m; ++i) {
      g_sink = g_sink +
               saf::svc::decode_submit(enc_s[i].data(), enc_s[i].size(), &s) +
               saf::svc::decode_reply(enc_r[i].data(), enc_r[i].size(), &r);
    }
  });
  // Snapshot chunks cut from the decided log, as SnapResp serves them.
  std::vector<saf::svc::SnapResp> chunks;
  for (std::size_t at = 0; at < log.size() && chunks.size() < 64;
       at += saf::svc::kSnapChunk) {
    saf::svc::SnapResp sr;
    sr.start = at;
    sr.frontier = log.size();
    const std::size_t cnt = std::min(saf::svc::kSnapChunk, log.size() - at);
    sr.decisions.assign(log.begin() + static_cast<std::ptrdiff_t>(at),
                        log.begin() + static_cast<std::ptrdiff_t>(at + cnt));
    chunks.push_back(std::move(sr));
  }
  if (!chunks.empty()) {
    w.snap_chunk_ns = ns_per_call(chunks.size(), [&] {
      saf::svc::SnapResp back;
      for (const saf::svc::SnapResp& sr : chunks) {
        out.clear();
        saf::svc::encode_snap_resp(sr, &out);
        g_sink = g_sink +
                 saf::svc::decode_snap_resp(out.data(), out.size(), &back);
      }
    });
  }
  return w;
}

LinkCosts time_udp_link(const std::vector<std::uint8_t>& payload,
                        std::uint64_t salt) {
  LinkCosts lc;
  const std::uint16_t port = pick_free_ports(2, salt);
  if (port == 0) throw std::runtime_error("no free ports for the link test");
  saf::rt::WallClock wall;
  saf::rt::UdpLink a(0, 2, port, wall);
  saf::rt::UdpLink b(1, 2, port, wall);
  if (!a.ok() || !b.ok()) throw std::runtime_error("link test bind failed");
  std::vector<double> rtt, flush, poll;
  bool got = false;
  const saf::rt::UdpLink::DeliverFn mark =
      [&](saf::ProcessId, const std::uint8_t*, std::size_t) { got = true; };
  const double t0 = now_ms();
  while (now_ms() - t0 < kTimeMs * 2 && rtt.size() < 20000) {
    const double s0 = now_ms();
    a.send(1, payload);
    a.flush();
    const double s1 = now_ms();
    got = false;
    double p0 = 0;
    int reads = 0;
    while (!got) {
      p0 = now_ms();
      reads = b.poll(mark);
      if (now_ms() - s0 > 1000) throw std::runtime_error("link test lost");
    }
    const double p1 = now_ms();
    b.send(0, payload);
    b.flush();
    got = false;
    while (!got) {
      a.poll(mark);
      if (now_ms() - s0 > 1000) throw std::runtime_error("link test lost");
    }
    rtt.push_back(now_ms() - s0);
    flush.push_back(s1 - s0);
    if (reads == 1) poll.push_back(p1 - p0);
  }
  lc.rtt_us = median(rtt) * 1e3;
  lc.flush_ns = median(flush) * 1e6;
  lc.poll_ns = median(poll) * 1e6;
  return lc;
}

double time_wal_store(const std::string& dir, std::uint64_t frontier) {
  saf::rt::NodeWal wal;
  wal.incarnation = 1;
  wal.svc_frontier = frontier;
  const std::string path = dir + "/unit_cost.wal";
  std::vector<double> us;
  const double t0 = now_ms();
  while (now_ms() - t0 < kTimeMs && us.size() < 2000) {
    const double s = now_ms();
    saf::rt::store_node_wal(path, wal);
    us.push_back((now_ms() - s) * 1e3);
  }
  return median(us);
}

/// ns per ProcSet operation (|, &=, -, size, contains) on n=1024 sets.
double time_procset_ops(std::uint64_t seed) {
  constexpr int kN = 1024;
  saf::util::Rng rng(seed);
  std::vector<saf::ProcSet> sets;
  for (int i = 0; i < 64; ++i) {
    saf::ProcSet s;
    for (int id = 0; id < kN; ++id) {
      if (rng.flip(0.5)) s.insert(id);
    }
    sets.push_back(s);
  }
  std::vector<saf::ProcessId> probes;
  for (int i = 0; i < 64; ++i) {
    probes.push_back(static_cast<saf::ProcessId>(rng.uniform(0, kN - 1)));
  }
  return ns_per_call(5 * sets.size(), [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      saf::ProcSet r = sets[i] | sets[(i + 1) % sets.size()];
      r &= sets[(i + 7) % sets.size()];
      const saf::ProcSet d = r - sets[(i + 13) % sets.size()];
      acc += static_cast<std::uint64_t>(d.size()) + d.contains(probes[i]);
    }
    g_sink = g_sink + acc;
  });
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_catalog() {
  static const std::vector<MetricSpec> kList = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"latency_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return kList;
}

const std::vector<MetricSpec>& per_layer_catalog() {
  static const std::vector<MetricSpec> kList = {
      {"rt.datagrams_per_decision", "count/decision"},
      {"rt.frames_per_datagram", "count/datagram"},
      {"rt.syscalls_per_decision", "count/decision"},
      {"rt.acks_per_frame", "ratio"},
      {"rt.retransmit_ratio", "ratio"},
      {"rt.window_stalls_per_decision", "count/decision"},
      {"rt.encode_ns", "ns"},
      {"rt.decode_ns", "ns"},
      {"rt.link_rtt_us", "us"},
      {"svc.proposals_per_batch", "count/batch"},
      {"svc.wire_encode_ns", "ns"},
      {"svc.wire_decode_ns", "ns"},
      {"svc.snap_requests", "count"},
      {"svc.snapshot_adopted", "count"},
      {"svc.snap_chunk_ns", "ns"},
      {"svc.outage_ms", "ms"},
      {"svc.request_fail_ratio", "ratio"},
      {"wal.store_us", "us"},
      {"core.kset_instance_us", "us"},
      {"core.events_per_decision", "count/decision"},
      {"node.user_ms_per_decision", "ms"},
      {"node.sys_ms_per_decision", "ms"},
      {"node.idle_share", "ratio"},
      {"node.rss_slope_mb_per_s", "MB/s"},
      {"node.unattributed_share", "ratio"},
      {"gen.lag_p99_ms", "ms"},
      {"gen.samples", "count"},
      {"sim.event_ns", "ns"},
      {"sim.events_per_run", "count"},
      {"sim.messages_per_run", "count"},
      {"util.procset_op_ns", "ns"},
      {"dfs.runs", "count"},
      {"dfs.distinct_states", "count"},
      {"dfs.hash_prune_ratio", "ratio"},
      {"dfs.por_saved_per_race", "ratio"},
      {"dfs.us_per_run", "us"},
      {"trace.overhead_share", "ratio"},
  };
  return kList;
}

Ledger::Ledger() {
  for (const MetricSpec& m : per_layer_catalog()) {
    rows_.emplace_back(m.name, Metric{0, m.unit});
  }
}

void Ledger::set(const std::string& name, double v) {
  for (auto& [n, m] : rows_) {
    if (n == name) {
      m.value = v;
      return;
    }
  }
  throw std::logic_error("per-layer metric not in the catalogue: " + name);
}

std::vector<std::pair<std::string, Metric>> Ledger::entries() const {
  return rows_;
}

void UnitCosts::fill(Ledger* led) const {
  led->set("rt.encode_ns", core.encode_ns);
  led->set("rt.decode_ns", core.decode_ns);
  led->set("rt.link_rtt_us", link.rtt_us);
  led->set("svc.wire_encode_ns", wire.encode_ns);
  led->set("svc.wire_decode_ns", wire.decode_ns);
  led->set("svc.snap_chunk_ns", wire.snap_chunk_ns);
  led->set("wal.store_us", wal_store_us);
  led->set("core.kset_instance_us", core.kset_instance_us);
  led->set("util.procset_op_ns", procset_op_ns);
  led->set("sim.event_ns", core.event_ns);
  led->set("sim.events_per_run", core.events_per_instance);
  led->set("sim.messages_per_run", core.messages_per_instance);
}

UnitCosts time_unit_costs(std::uint64_t seed,
                          const std::vector<std::int64_t>& values,
                          const std::vector<std::int64_t>& log,
                          std::uint64_t frontier, const std::string& dir) {
  UnitCosts uc;
  uc.core = time_core_and_codec(saf::util::derive_seed(seed, "core"));
  uc.wire = time_svc_wire(values, log);
  std::vector<std::uint8_t> submit;
  saf::svc::Submit sm;
  sm.req_seq = 1;
  sm.value = values.empty() ? 1 : values.front();
  saf::svc::encode_submit(sm, &submit);
  uc.link = time_udp_link(submit, seed);
  uc.wal_store_us = time_wal_store(dir, frontier);
  uc.procset_op_ns = time_procset_ops(seed);
  return uc;
}

}  // namespace perfbench
