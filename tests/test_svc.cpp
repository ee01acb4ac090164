// Decision-service suites (src/svc): the client/catch-up wire codec's
// roundtrip + rejection contract, the tier-side percentile helper, the
// service contract checker on synthetic node results, and end-to-end
// runs — real forked svc clusters (one with a live client tier, one
// with a SIGKILL/restart), checked through the per-instance service
// contract and the nodes' memory bounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rt/cluster.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/wire.h"
#include "sweep/bench_json.h"

namespace {

using namespace saf;
using namespace saf::svc;

TEST(SvcWire, SubmitRoundtrip) {
  const Submit in{.req_seq = 712, .value = -123456789};
  std::vector<std::uint8_t> buf;
  encode_submit(in, &buf);
  ASSERT_FALSE(buf.empty());
  EXPECT_EQ(buf[0], kSvcSubmit);
  Submit out;
  ASSERT_TRUE(decode_submit(buf.data(), buf.size(), &out));
  EXPECT_EQ(out.req_seq, in.req_seq);
  EXPECT_EQ(out.value, in.value);
}

TEST(SvcWire, ReplyRoundtrip) {
  const Reply in{.req_seq = 9, .instance = 41, .decision = INT64_MIN};
  std::vector<std::uint8_t> buf;
  encode_reply(in, &buf);
  Reply out;
  ASSERT_TRUE(decode_reply(buf.data(), buf.size(), &out));
  EXPECT_EQ(out.req_seq, in.req_seq);
  EXPECT_EQ(out.instance, in.instance);
  EXPECT_EQ(out.decision, in.decision);
}

TEST(SvcWire, SnapReqRoundtrip) {
  const SnapReq in{.from_instance = 5000};
  std::vector<std::uint8_t> buf;
  encode_snap_req(in, &buf);
  SnapReq out;
  ASSERT_TRUE(decode_snap_req(buf.data(), buf.size(), &out));
  EXPECT_EQ(out.from_instance, in.from_instance);
}

TEST(SvcWire, SnapRespRoundtripFullChunk) {
  SnapResp in;
  in.start = 300;
  in.frontier = 512;
  for (std::size_t i = 0; i < kSnapChunk; ++i) {
    in.decisions.push_back(static_cast<std::int64_t>(i) - 50);
  }
  std::vector<std::uint8_t> buf;
  encode_snap_resp(in, &buf);
  // The sizing contract behind kSnapChunk: a full chunk fits the
  // default link payload budget.
  EXPECT_LE(buf.size(), std::size_t{1200});
  SnapResp out;
  ASSERT_TRUE(decode_snap_resp(buf.data(), buf.size(), &out));
  EXPECT_EQ(out.start, in.start);
  EXPECT_EQ(out.frontier, in.frontier);
  EXPECT_EQ(out.decisions, in.decisions);
}

TEST(SvcWire, SnapRespEmptyRoundtrip) {
  const SnapResp in{.start = 7, .frontier = 7, .decisions = {}};
  std::vector<std::uint8_t> buf;
  encode_snap_resp(in, &buf);
  SnapResp out;
  ASSERT_TRUE(decode_snap_resp(buf.data(), buf.size(), &out));
  EXPECT_EQ(out.start, 7u);
  EXPECT_TRUE(out.decisions.empty());
}

TEST(SvcWire, MalformedBuffersRejected) {
  std::vector<std::uint8_t> buf;
  encode_submit(Submit{.req_seq = 1, .value = 2}, &buf);
  Submit s;
  // Truncated, extended, and retagged frames must all decode to nothing.
  EXPECT_FALSE(decode_submit(buf.data(), buf.size() - 1, &s));
  std::vector<std::uint8_t> longer = buf;
  longer.push_back(0);
  EXPECT_FALSE(decode_submit(longer.data(), longer.size(), &s));
  std::vector<std::uint8_t> retag = buf;
  retag[0] = kSvcReply;
  EXPECT_FALSE(decode_submit(retag.data(), retag.size(), &s));
  EXPECT_FALSE(decode_submit(nullptr, 0, &s));

  // A SnapResp whose count field promises more values than the buffer
  // carries is dropped, not over-read.
  SnapResp r{.start = 0, .frontier = 4, .decisions = {1, 2, 3, 4}};
  std::vector<std::uint8_t> rb;
  encode_snap_resp(r, &rb);
  SnapResp out;
  EXPECT_TRUE(decode_snap_resp(rb.data(), rb.size(), &out));
  EXPECT_FALSE(decode_snap_resp(rb.data(), rb.size() - 8, &out));
}

TEST(SvcWire, DispatchRange) {
  const std::uint8_t below[] = {31};
  const std::uint8_t lo[] = {kSvcSubmit};
  const std::uint8_t hi[] = {kSvcSnapResp};
  const std::uint8_t above[] = {36};
  EXPECT_FALSE(is_svc_payload(below, 1));
  EXPECT_TRUE(is_svc_payload(lo, 1));
  EXPECT_TRUE(is_svc_payload(hi, 1));
  EXPECT_FALSE(is_svc_payload(above, 1));
  EXPECT_FALSE(is_svc_payload(lo, 0));
}

TEST(SvcClient, LatencyPercentileNearestRank) {
  EXPECT_EQ(latency_percentile({}, 99), 0.0);
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_EQ(latency_percentile(v, 50), 3.0);
  EXPECT_EQ(latency_percentile(v, 100), 5.0);
  EXPECT_EQ(latency_percentile(v, 0), 1.0);
  EXPECT_EQ(latency_percentile({7.5}, 99), 7.5);
}

/// A node's memory stayed bounded: a handful of live cores and at most
/// a few generations' worth of message arena, while at least
/// `min_generations` generations were started behind its frontier.
void expect_bounded_memory(const sweep::FlatJson& nj, double min_generations,
                           ProcessId id) {
  EXPECT_GE(nj.at("svc_arena_generations"), min_generations) << "node " << id;
  EXPECT_GE(nj.at("svc_live_cores_max"), 1.0) << "node " << id;
  EXPECT_LE(nj.at("svc_live_cores_max"), 16.0) << "node " << id;
  // Two live generations of kGenerationInstances instances each, at
  // under 8 KiB of messages per instance (about 2.6 KiB at n = 5).
  EXPECT_GT(nj.at("svc_arena_bytes_max"), 0.0) << "node " << id;
  EXPECT_LE(nj.at("svc_arena_bytes_max"), 2.0 * kGenerationInstances * 8192)
      << "node " << id;
}

// End-to-end: a five-node svc cluster pipelines instances for ~2s while
// a small client tier submits through churned links; the run must hold
// the per-instance service contract, advance the decided frontier on
// every node, and answer the clients.
TEST(SvcCluster, PipelinesAndServesClients) {
  rt::ClusterConfig cfg;
  cfg.protocol = "svc";
  cfg.n = 5;
  cfg.t = 2;
  cfg.k = 2;
  cfg.base_port = 48750;
  cfg.run_for_ms = 2'500;
  cfg.out_dir = "test_svc_out";
  cfg.svc_client_slots = 16;
  cfg.node_runner = svc::run_server;
  cfg.contract_checker = svc::check_service_contract;

  ClientTierConfig tier;
  tier.n = cfg.n;
  tier.base_port = cfg.base_port;
  tier.clients = 8;
  tier.total_slots = cfg.svc_client_slots;
  tier.run_for_ms = 1'200;
  tier.churn_lifetime_ms = 600;

  ClientRunResult clients;
  std::thread tier_thread([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    clients = run_client_tier(tier);
  });
  const rt::ClusterResult res = rt::run_cluster(cfg);
  tier_thread.join();

  ASSERT_TRUE(res.contract_ok()) << res.detail;
  EXPECT_TRUE(clients.ok);
  EXPECT_GT(clients.submitted, 0u);
  EXPECT_GT(clients.replies, 0u);
  EXPECT_GT(clients.churns, 0u);
  EXPECT_EQ(clients.latencies_ms.size(), clients.replies);

  // Every node's result file reports a non-trivial decided frontier —
  // the pipeline ran on all of them, not just a quorum — and memory that
  // stayed bounded while the frontier crossed several arena generations.
  for (const rt::ClusterNodeOutcome& node : res.nodes) {
    ASSERT_TRUE(node.launched);
    const sweep::FlatJson nj =
        sweep::load_json_numbers(rt::cluster_node_result_path(cfg, node.id));
    const auto it = nj.find("svc_frontier");
    ASSERT_NE(it, nj.end()) << "node " << node.id;
    EXPECT_GT(it->second, 0.0) << "node " << node.id;
    expect_bounded_memory(nj, 3, node.id);
  }
}

// One server is SIGKILLed mid-stream and restarted from an empty log: it
// must catch up through snapshots far enough to start arena generations
// along the way, and the run must keep the service contract.
TEST(SvcCluster, RestartedServerAdoptsSnapshotsAcrossGenerations) {
  rt::ClusterConfig cfg;
  cfg.protocol = "svc";
  cfg.n = 5;
  cfg.t = 2;
  cfg.k = 2;
  cfg.base_port = 48790;
  cfg.run_for_ms = 4'000;
  cfg.out_dir = "test_svc_chaos_out";
  cfg.svc_client_slots = 4;
  cfg.node_runner = svc::run_server;
  cfg.contract_checker = svc::check_service_contract;
  cfg.chaos.kills = 1;
  cfg.chaos.window_start_ms = 1'800;
  cfg.chaos.window_span_ms = 200;
  cfg.chaos.restart_delay_ms = 300;
  cfg.chaos.seed = 5;

  const rt::ClusterResult res = rt::run_cluster(cfg);
  ASSERT_TRUE(res.contract_ok()) << res.detail;
  ASSERT_EQ(res.chaos_events.size(), 1u);
  const ProcessId victim = res.chaos_events[0].victim;
  ASSERT_NE(res.chaos_events[0].restarted_at_ms, kNeverTime);

  const sweep::FlatJson nj =
      sweep::load_json_numbers(rt::cluster_node_result_path(cfg, victim));
  EXPECT_GE(nj.at("incarnation"), 1.0);
  EXPECT_GE(nj.at("svc_snapshot_adopted"), 2.0 * kGenerationInstances);
  expect_bounded_memory(nj, 2, victim);
}

// --- Service contract checker on synthetic node results ----------------

/// Writes node `id`'s result file with the given decided log and
/// proposals ((instance, value) pairs).
void write_node_result(
    const rt::ClusterConfig& cfg, ProcessId id, std::uint64_t frontier,
    const std::vector<std::int64_t>& log,
    const std::vector<std::pair<std::uint64_t, std::int64_t>>& props) {
  sweep::JsonWriter w;
  w.begin_object();
  w.key("svc_frontier").value(frontier);
  w.key("svc_decisions").begin_array();
  for (const std::int64_t v : log) w.value(v);
  w.end_array();
  w.key("svc_proposal_instances").begin_array();
  for (const auto& [inst, v] : props) w.value(inst);
  w.end_array();
  w.key("svc_proposal_values").begin_array();
  for (const auto& [inst, v] : props) w.value(v);
  w.end_array();
  w.end_object();
  sweep::write_file_atomic(rt::cluster_node_result_path(cfg, id), w.str());
}

rt::ClusterResult synthetic_cluster(const rt::ClusterConfig& cfg) {
  std::filesystem::create_directories(cfg.out_dir);
  rt::ClusterResult res;
  res.ok = true;
  for (ProcessId id = 0; id < cfg.n; ++id) {
    rt::ClusterNodeOutcome node;
    node.id = id;
    node.launched = true;
    res.nodes.push_back(node);
  }
  return res;
}

bool has_violation(const rt::ClusterResult& res, const std::string& what) {
  for (const std::string& v : res.violations) {
    if (v.find(what) != std::string::npos) return true;
  }
  return false;
}

TEST(SvcContract, AcceptsAgreeingLogs) {
  rt::ClusterConfig cfg;
  cfg.n = 3;
  cfg.k = 2;
  cfg.out_dir = "test_svc_contract_ok";
  rt::ClusterResult res = synthetic_cluster(cfg);
  write_node_result(cfg, 0, 3, {10, 11, 12}, {{0, 10}, {1, 11}, {2, 12}});
  write_node_result(cfg, 1, 3, {10, 11, 12}, {{0, 20}, {2, 12}});
  write_node_result(cfg, 2, 2, {10, 11}, {{1, 11}});
  svc::check_service_contract(cfg, &res);
  EXPECT_TRUE(res.violations.empty()) << res.detail;
  EXPECT_EQ(res.distinct_decided, 1);
}

TEST(SvcContract, ReportsAHoleAndKPlusOneValues) {
  rt::ClusterConfig cfg;
  cfg.n = 4;
  cfg.k = 2;
  cfg.out_dir = "test_svc_contract_bad";
  rt::ClusterResult res = synthetic_cluster(cfg);
  // Instance 1 decided three distinct values (k + 1) on nodes 0-2;
  // node 3 claims a frontier of 3 but its log stops after one instance.
  write_node_result(cfg, 0, 2, {10, 11}, {{0, 10}, {1, 11}});
  write_node_result(cfg, 1, 2, {10, 21}, {{1, 21}});
  write_node_result(cfg, 2, 2, {10, 31}, {{1, 31}});
  write_node_result(cfg, 3, 3, {10}, {});
  svc::check_service_contract(cfg, &res);
  EXPECT_TRUE(has_violation(res, "node 3 frontier 3 has a hole at instance 1"))
      << res.detail;
  EXPECT_TRUE(has_violation(res, "svc agreement: instance 1 decided 3"))
      << res.detail;
  EXPECT_FALSE(has_violation(res, "svc validity"));
  EXPECT_EQ(res.distinct_decided, 3);
  EXPECT_FALSE(res.contract_ok());
}

TEST(SvcContract, ReportsAnUnproposedDecision) {
  rt::ClusterConfig cfg;
  cfg.n = 3;
  cfg.k = 2;
  cfg.out_dir = "test_svc_contract_validity";
  rt::ClusterResult res = synthetic_cluster(cfg);
  write_node_result(cfg, 0, 1, {99}, {{0, 10}});
  write_node_result(cfg, 1, 1, {99}, {});
  write_node_result(cfg, 2, 1, {99}, {});
  svc::check_service_contract(cfg, &res);
  EXPECT_TRUE(has_violation(res, "svc validity: instance 0 decided 99"))
      << res.detail;
}

}  // namespace
