#include "util/rng.h"

#include "util/check.h"

namespace saf::util {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t parent, std::string_view label) {
  std::uint64_t h = parent;
  for (char c : label) {
    h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  return splitmix64(h);
}

std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t salt) {
  return splitmix64(splitmix64(parent) ^ salt);
}

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) {
  return uniform_in(engine_, lo, hi);
}

double Rng::uniform01() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

bool Rng::flip(double p) { return uniform01() < p; }

std::size_t Rng::index(std::size_t size) {
  SAF_CHECK(size > 0);
  return static_cast<std::size_t>(
      uniform(0, static_cast<std::int64_t>(size) - 1));
}

ProcSet Rng::subset(ProcSet universe, int k) {
  return subset_of(engine_, universe, k);
}

Rng Rng::split(std::string_view label) {
  return Rng(derive_seed(engine_(), label));
}

Rng Rng::split(std::uint64_t salt) { return Rng(derive_seed(engine_(), salt)); }

Mt64Prefix::result_type Mt64Prefix::operator()() {
  if (drawn_ < kN - kM) {
    const std::size_t j = drawn_++;
    // std::mt19937_64's seeding recurrence, up to the words output j reads.
    for (; seeded_ <= j + kM; ++seeded_) {
      const std::uint64_t p = x_[seeded_ - 1];
      x_[seeded_] = 6364136223846793005ULL * (p ^ (p >> 62)) + seeded_;
    }
    // Its twist (upper 33 bits of word j, lower 31 of word j+1) ...
    const std::uint64_t y =
        (x_[j] & ~0x7fffffffULL) | (x_[j + 1] & 0x7fffffffULL);
    std::uint64_t z =
        x_[j + kM] ^ (y >> 1) ^ ((y & 1) != 0 ? 0xb5026f5aa96619e9ULL : 0);
    // ... and its tempering.
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }
  if (!full_) {
    full_.emplace(x_[0]);
    full_->discard(kN - kM);
  }
  return (*full_)();
}

}  // namespace saf::util
