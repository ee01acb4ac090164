// ◇S-based k-set agreement with k rotating coordinators per round — the
// algorithm family the paper's observation O2 cites ([11, 19]) and that
// the Theorem 5 lower-bound reduction leans on.
//
// Round r has a coordinator window C_r of k processes (rotating so every
// process coordinates infinitely often). Phase 1: coordinators broadcast
// their estimates; everyone waits for some coordinator's estimate or for
// the whole window to be suspected. Phase 2 is the commit/adopt exchange
// of Fig 3: n-t echoes with no bottom decide, any non-bottom is adopted.
// At most k estimates circulate per round, so at most k values can ever
// be decided; termination follows from the full-scope eventual accuracy
// of ◇S = ◇S_n (a never-suspected correct process eventually enters the
// window and everyone hears it).
//
// Limited-scope variants (◇S_x with x < n) are intentionally NOT solved
// by this protocol directly: scope-limited accuracy cannot stop non-scope
// processes from echoing bottom forever. The library reaches the
// ◇S_x power through the paper's own route instead — two wheels to Ω_z,
// then Fig 3 (core/stacked.h) — which is the point of the reduction
// methodology.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "fd/oracle.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace saf::core {

struct KCoordEstMsg final : sim::MessageOf<KCoordEstMsg> {
  KCoordEstMsg(int r, std::int64_t v) : round(r), est(v) {}
  std::string_view tag() const override { return "kcoord_est"; }
  int round;
  std::int64_t est;
};

struct KEchoMsg final : sim::MessageOf<KEchoMsg> {
  KEchoMsg(int r, std::int64_t a) : round(r), aux(a) {}
  std::string_view tag() const override { return "kecho"; }
  int round;
  std::int64_t aux;  ///< INT64_MIN encodes bottom
};

struct KDecisionMsg final : sim::MessageOf<KDecisionMsg> {
  explicit KDecisionMsg(std::int64_t v) : value(v) {}
  std::string_view tag() const override { return "kdecision"; }
  std::int64_t value;
};

class DiamondSKSetProcess final : public sim::Process {
 public:
  DiamondSKSetProcess(ProcessId id, int n, int t, int k,
                      const fd::SuspectOracle& suspects,
                      std::int64_t proposal);

  void boot() override { spawn(main()); }
  void on_message(const sim::Message& m) override;
  void on_rdeliver(const sim::Message& m) override;

  bool decided() const { return decided_; }
  std::int64_t decision() const { return decision_; }
  Time decision_time() const { return decision_time_; }
  int decision_round() const { return decision_round_; }

  /// Coordinator window of round r (k consecutive ids, stride k).
  ProcSet coordinators(int r) const;

 private:
  sim::ProtocolTask main();

  int k_;
  const fd::SuspectOracle& suspects_;
  std::int64_t est_;
  int round_ = 0;
  std::map<int, std::vector<std::int64_t>> coord_ests_;
  std::map<int, std::vector<std::int64_t>> echoes_;
  bool decided_ = false;
  std::int64_t decision_ = INT64_MIN;
  Time decision_time_ = kNeverTime;
  int decision_round_ = 0;
};

struct DiamondSKSetConfig {
  int n = 9;
  int t = 4;
  int k = 2;
  std::uint64_t seed = 1;
  Time fd_stab = 200;
  Time detect_delay = 15;
  double noise = 0.05;
  Time horizon = 100'000;
  Time delay_min = 1;
  Time delay_max = 10;
  std::vector<std::int64_t> proposals;  ///< default 100 + i
  sim::CrashPlan crashes;
};

struct DiamondSKSetResult {
  bool all_correct_decided = false;
  bool validity = false;
  int distinct_decided = 0;
  int max_round = 0;
  Time finish_time = kNeverTime;
  std::uint64_t total_messages = 0;
};

DiamondSKSetResult run_diamond_s_kset(const DiamondSKSetConfig& cfg);

}  // namespace saf::core
