// The four workloads. Each returns the contract metrics of one run.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch root inside the checkout; each run makes its own
  /// directory under it and removes it at the end.
  std::string work_root;
};

RunResult run_svc(const RunArgs& args, bool chaos);
RunResult run_sim(const RunArgs& args);
RunResult run_dfs(const RunArgs& args);

}  // namespace perfbench
