// Baseline consensus protocols (§1 context).
//
// 1. ◇S-based consensus — rotating-coordinator, quorum-based (in the
//    style of Chandra-Toueg / Mostefaoui-Raynal): round r's coordinator
//    c = r mod n broadcasts its estimate; every process echoes either
//    c's value or bottom (when it suspects c); n-t echoes with no bottom
//    decide, any non-bottom echo is adopted. Requires t < n/2 and a
//    detector of class ◇S = ◇S_n.
//
// 2. Ω-based consensus — exactly the paper's Fig 3 with k = z = 1
//    (consensus IS 1-set agreement); exposed as a thin wrapper so the
//    benches can name it.
//
// These are the baselines the paper positions its framework against, and
// the targets of the motivating addition: ◇S_t + ◇φ_1 → Ω_1 → consensus.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "fd/oracle.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace saf::core {

struct CoordMsg final : sim::MessageOf<CoordMsg> {
  CoordMsg(int r, std::int64_t v) : round(r), est(v) {}
  std::string_view tag() const override { return "coord"; }
  int round;
  std::int64_t est;
};

struct EchoMsg final : sim::MessageOf<EchoMsg> {
  EchoMsg(int r, std::int64_t a) : round(r), aux(a) {}
  std::string_view tag() const override { return "echo"; }
  int round;
  std::int64_t aux;  ///< INT64_MIN encodes bottom
};

struct ConsensusDecisionMsg final : sim::MessageOf<ConsensusDecisionMsg> {
  explicit ConsensusDecisionMsg(std::int64_t v) : value(v) {}
  std::string_view tag() const override { return "cons_decision"; }
  std::int64_t value;
};

class DiamondSConsensusProcess final : public sim::Process {
 public:
  DiamondSConsensusProcess(ProcessId id, int n, int t,
                           const fd::SuspectOracle& suspects,
                           std::int64_t proposal);

  void boot() override { spawn(main()); }
  void on_message(const sim::Message& m) override;
  void on_rdeliver(const sim::Message& m) override;

  bool decided() const { return decided_; }
  std::int64_t decision() const { return decision_; }
  Time decision_time() const { return decision_time_; }
  int decision_round() const { return decision_round_; }

 private:
  sim::ProtocolTask main();

  const fd::SuspectOracle& suspects_;
  std::int64_t est_;
  int round_ = 0;
  std::map<int, std::int64_t> coord_value_;      // round -> coordinator est
  std::map<int, std::vector<std::int64_t>> echoes_;
  bool decided_ = false;
  std::int64_t decision_ = INT64_MIN;
  Time decision_time_ = kNeverTime;
  int decision_round_ = 0;
};

struct ConsensusRunConfig {
  int n = 7;
  int t = 3;
  std::uint64_t seed = 1;
  Time fd_stab = 200;     ///< detector stabilization time
  Time detect_delay = 15;
  double noise = 0.05;
  Time horizon = 100'000;
  Time tick_period = 5;
  Time delay_min = 1;
  Time delay_max = 10;
  std::vector<std::int64_t> proposals;  ///< default 100 + i
  sim::CrashPlan crashes;
};

struct ConsensusRunResult {
  bool all_correct_decided = false;
  bool agreement = false;  ///< single decided value
  bool validity = false;
  std::int64_t decided_value = INT64_MIN;
  Time finish_time = kNeverTime;
  int max_round = 0;
  std::uint64_t total_messages = 0;
};

/// Runs the ◇S-based baseline.
ConsensusRunResult run_diamond_s_consensus(const ConsensusRunConfig& cfg);

/// Runs the Ω-based baseline (Fig 3 with k = z = 1).
ConsensusRunResult run_omega_consensus(const ConsensusRunConfig& cfg);

}  // namespace saf::core
