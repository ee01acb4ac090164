#include "fd/omega_oracle.h"

#include "util/check.h"
#include "util/rng.h"

namespace saf::fd {

OmegaZOracle::OmegaZOracle(const sim::FailurePattern& pattern, int z,
                           OmegaOracleParams params)
    : pattern_(pattern), z_(z), params_(params) {
  util::require(z >= 1 && z <= pattern.n(), "OmegaZOracle: need 1 <= z <= n");
  util::require(params.stab_time >= 0, "OmegaZOracle: negative stab_time");
  const ProcSet correct = pattern.planned_correct();
  util::require(!correct.empty(), "OmegaZOracle: no planned-correct process");
  if (params.forced_final_set) {
    final_set_ = *params.forced_final_set;
    util::require(final_set_.size() >= 1 && final_set_.size() <= z,
                  "OmegaZOracle: forced final set size out of [1, z]");
    util::require(final_set_.intersects(correct),
                  "OmegaZOracle: forced final set has no correct member");
    return;
  }
  util::Rng rng(util::derive_seed(params.seed, "omega_z"));
  const auto correct_ids = correct.to_vector();
  const ProcessId leader = correct_ids[rng.index(correct_ids.size())];
  ProcSet others = ProcSet::full(pattern.n());
  others.erase(leader);
  // The final set may legitimately mix in faulty processes; protocols
  // must cope (only *one* member is promised correct).
  const int extra = static_cast<int>(
      rng.uniform(0, z - 1));
  final_set_ = rng.subset(others, extra);
  final_set_.insert(leader);
  SAF_CHECK(final_set_.size() <= z && final_set_.intersects(correct));
}

ProcSet OmegaZOracle::trusted(ProcessId i, Time now) const {
  if (now >= params_.stab_time || !params_.anarchy_before_stab) {
    return final_set_;
  }
  // Anarchy: deterministic pseudo-random set of size in [1, z] varying
  // with (i, now). A query draws about z + 1 words, so the prefix engine
  // spares the full mt19937_64 seeding and twist (same stream).
  std::uint64_t h = util::derive_seed(params_.seed ^ 0xa5a5a5a5ULL,
                                      static_cast<std::uint64_t>(now));
  h = util::derive_seed(h, static_cast<std::uint64_t>(i));
  util::Mt64Prefix eng(h);
  const int size = static_cast<int>(util::uniform_in(eng, 1, z_));
  return util::subset_of(eng, ProcSet::full(pattern_.n()), size);
}

}  // namespace saf::fd
