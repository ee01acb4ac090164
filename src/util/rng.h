// Deterministic, splittable randomness.
//
// Every run of the simulator is a pure function of its seed. Components
// (network delays, oracle noise, crash schedules, ...) each get their own
// stream derived from the run seed and a component label, so adding a
// consumer of randomness in one component never perturbs another.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <string_view>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace saf::util {

/// Mixes a parent seed with a label into a child seed (splitmix64-style).
std::uint64_t derive_seed(std::uint64_t parent, std::string_view label);
std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t salt);

/// Uniform integer in [lo, hi] inclusive drawn from `engine` (any
/// 64-bit URBG). Requires lo <= hi. The one sampling path behind Rng and
/// Mt64Prefix: both engines yield the same words, so both draw the same.
template <typename Engine>
std::int64_t uniform_in(Engine& engine, std::int64_t lo, std::int64_t hi) {
  SAF_CHECK(lo <= hi);
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine);
}

/// A uniformly random subset of `universe` of exactly `k` elements,
/// drawn from `engine` by a partial Fisher-Yates shuffle of the
/// universe's ids in increasing order. The id array stays virtual: a
/// position holds universe.nth(position) until a swap writes it, each
/// step writes one position, so at most k (position, id) writes stand in
/// for the array: a draw costs k nth() lookups and O(k^2) list steps, not
/// O(n).
template <typename Engine>
ProcSet subset_of(Engine& engine, ProcSet universe, int k) {
  const int size = universe.size();
  SAF_CHECK(k >= 0 && k <= size);
  std::array<int, kMaxProcs> pos;  // the writes, oldest first
  std::array<ProcessId, kMaxProcs> val;
  int writes = 0;
  const auto at = [&](int p) {
    for (int w = writes; w-- > 0;) {
      if (pos[w] == p) return val[w];
    }
    return universe.nth(p);
  };
  ProcSet out;
  for (int i = 0; i < k; ++i) {
    const int j = i + static_cast<int>(uniform_in(engine, 0, size - i - 1));
    // Swap positions i and j; position i is never read again.
    const ProcessId picked = at(j);
    pos[writes] = j;
    val[writes] = at(i);
    ++writes;
    out.insert(picked);
  }
  return out;
}

/// Exactly the stream of std::mt19937_64(seed), for streams that draw a
/// few words and die (one Ω_z anarchy query). The full engine seeds all
/// 312 state words and twists them before its first output; output
/// j < 156 of that twist reads only seeded words j, j+1 and j+156, so
/// this engine seeds lazily up to word j+156 and twists nothing. Past
/// output 155 it falls back to a full engine.
class Mt64Prefix {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt64Prefix(std::uint64_t seed) { x_[0] = seed; }

  result_type operator()();

 private:
  static constexpr std::size_t kN = 312;  // mt19937_64 state words
  static constexpr std::size_t kM = 156;  // its twist offset
  std::uint64_t x_[kN];                   // seeded words [0, seeded_)
  std::size_t seeded_ = 1;
  std::size_t drawn_ = 0;
  std::optional<std::mt19937_64> full_;
};

/// A seeded random stream. Thin wrapper over mt19937_64 with the sampling
/// helpers the simulator needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Bernoulli with probability p of true.
  bool flip(double p);

  /// Uniformly chosen element index of a container of given size (> 0).
  std::size_t index(std::size_t size);

  /// A uniformly random subset of `universe` of exactly `k` elements.
  ProcSet subset(ProcSet universe, int k);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  /// Child stream for a sub-component.
  Rng split(std::string_view label);
  Rng split(std::uint64_t salt);

 private:
  std::mt19937_64 engine_;
};

}  // namespace saf::util
