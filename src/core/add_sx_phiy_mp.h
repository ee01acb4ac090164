// Appendix B, message-passing translation:  S_x + φ_y → S  (and the
// eventual variant), x + y > t.
//
// The paper presents the addition algorithm in the shared-memory model
// "to show the versatility of the approach" and remarks it "can be
// easily translated in the message-passing model without adding any
// requirement on t". This is that translation:
//
//   * the alive[i] register becomes a heartbeat broadcast carrying a
//     monotonically increasing counter and p_i's current suspected_i;
//   * the collect loop becomes: keep re-computing the no-progress set
//     X = Π \ {j : a fresher heartbeat from j arrived since the last
//     accepted scan} until query(X) returns true;
//   * SUSPECTED_i = (∩_{j in live} last_suspected[j]) \ live, exactly as
//     in the register version.
//
// No majority of correct processes is needed — the only waiting is on
// the φ oracle, which reports on regions regardless of quorums.
#pragma once

#include <cstdint>
#include <vector>

#include "fd/checkers.h"
#include "fd/emulated.h"
#include "fd/oracle.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace saf::core {

struct HeartbeatMsg final : sim::MessageOf<HeartbeatMsg> {
  HeartbeatMsg(std::uint64_t c, ProcSet s) : counter(c), suspects(s) {}
  std::string_view tag() const override { return "heartbeat"; }
  std::uint64_t counter;
  ProcSet suspects;  ///< the sender's suspected_i at send time
};

class AdditionMpProcess final : public sim::Process {
 public:
  AdditionMpProcess(ProcessId id, int n, int t, const fd::SuspectOracle& sx,
                    const fd::QueryOracle& phi,
                    fd::EmulatedSuspectStore& out, Time hb_period,
                    Time scan_period);

  void boot() override {
    spawn(heartbeat_task());
    spawn(scanner_task());
  }
  void on_message(const sim::Message& m) override;

  std::uint64_t scans_completed() const { return scans_; }

 private:
  sim::ProtocolTask heartbeat_task();
  sim::ProtocolTask scanner_task();

  const fd::SuspectOracle& sx_;
  const fd::QueryOracle& phi_;
  fd::EmulatedSuspectStore& out_;
  Time hb_period_;
  Time scan_period_;
  std::uint64_t counter_ = 0;
  std::vector<std::uint64_t> latest_;        ///< freshest counter heard
  std::vector<ProcSet> latest_suspects_;     ///< freshest suspicion heard
  std::vector<std::uint64_t> prev_;          ///< counters at last scan
  std::uint64_t scans_ = 0;
};

struct AdditionMpConfig {
  int n = 7;
  int t = 3;
  int x = 2;
  int y = 2;  ///< needs x + y > t
  bool perpetual = false;
  std::uint64_t seed = 1;
  Time stab = 300;
  Time detect_delay = 15;
  double sx_noise = 0.05;
  Time horizon = 30'000;
  Time hb_period = 4;
  Time scan_period = 12;
  Time delay_min = 1;
  Time delay_max = 8;
  sim::CrashPlan crashes;
};

struct AdditionMpResult {
  fd::CheckResult completeness;
  fd::CheckResult accuracy;  ///< full scope (x = n)
  std::uint64_t heartbeats = 0;
  std::uint64_t min_scans = 0;
};

AdditionMpResult run_addition_mp(const AdditionMpConfig& cfg);

}  // namespace saf::core
