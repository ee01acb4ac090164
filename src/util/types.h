// Core value types shared by every module: process identifiers, virtual
// time, and a bitset of processes (ProcSet).
//
// The whole library assumes n <= kMaxProcs processes. A set of processes
// lives in a fixed array of 64-bit words (kMaxProcs / 64 of them), with
// per-word popcount/countr_zero for the hot operations. For n <= 64 only
// word 0 is ever populated, and every observable value derived from a set
// (mask(), ordering, hash, iteration order) coincides bit-for-bit with
// the historical single-word representation, which keeps all recorded
// digests and golden traces stable.
//
// Loops over the backing store are bounded by top_, an upper bound on the
// number of words that may be nonzero (every word at index >= top_ is
// zero). Small-n workloads therefore touch one word per operation, not
// kWords; the bound is maintained cheaply (insert/union grow it, erase
// leaves it alone) and never affects observable values.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace saf {

/// Identity of a process. Processes are numbered 0..n-1.
using ProcessId = int;

/// Virtual (simulated) time. Strictly logical: one unit is one "delay
/// quantum" of the discrete-event engine, not a wall-clock duration.
using Time = std::int64_t;

/// Sentinel for "no time" / "never".
inline constexpr Time kNeverTime = -1;

/// Upper bound on the number of simulated processes.
inline constexpr int kMaxProcs = 1024;

/// A set of process identities, stored as kMaxProcs / 64 words.
///
/// ProcSet is a regular value type: cheap to copy, totally ordered (words
/// compared most-significant first, which for single-word sets is the
/// mask-value order used by the phi-bar containment checker), hashable
/// via hash().
class ProcSet {
 public:
  /// Number of 64-bit words in the backing store.
  static constexpr int kWords = kMaxProcs / 64;

  constexpr ProcSet() = default;
  /// The set whose word 0 is `mask` (ids 0..63). Retained for n <= 64
  /// call sites and serialized masks.
  constexpr explicit ProcSet(std::uint64_t mask) {
    w_[0] = mask;
    top_ = mask != 0 ? 1 : 0;
  }
  constexpr ProcSet(std::initializer_list<ProcessId> ids) {
    for (ProcessId id : ids) insert(id);
  }

  /// The set {0, 1, ..., n-1}.
  static constexpr ProcSet full(int n) {
    ProcSet s;
    if (n >= kMaxProcs) {
      for (auto& w : s.w_) w = ~std::uint64_t{0};
      s.top_ = kWords;
      return s;
    }
    if (n <= 0) return s;
    const int whole = n / 64;
    for (int i = 0; i < whole; ++i) s.w_[i] = ~std::uint64_t{0};
    const int rem = n % 64;
    if (rem != 0) s.w_[whole] = (std::uint64_t{1} << rem) - 1;
    s.top_ = rem != 0 ? whole + 1 : whole;
    return s;
  }

  static ProcSet from_vector(const std::vector<ProcessId>& ids) {
    ProcSet s;
    for (ProcessId id : ids) s.insert(id);
    return s;
  }

  /// Rebuilds a set from its `count` least-significant words (wire
  /// decoding). Requires 0 <= count <= kWords.
  static constexpr ProcSet from_words(const std::uint64_t* words, int count) {
    ProcSet s;
    for (int i = 0; i < count; ++i) s.w_[i] = words[i];
    s.top_ = count;
    return s;
  }

  constexpr bool contains(ProcessId id) const {
    return (w_[static_cast<unsigned>(id) / 64] >> (id % 64)) & 1u;
  }
  constexpr void insert(ProcessId id) {
    const int wi = static_cast<int>(static_cast<unsigned>(id) / 64);
    w_[wi] |= std::uint64_t{1} << (id % 64);
    if (wi >= top_) top_ = wi + 1;
  }
  constexpr void erase(ProcessId id) {
    w_[static_cast<unsigned>(id) / 64] &= ~(std::uint64_t{1} << (id % 64));
  }
  constexpr int size() const {
    // 4-way unrolled with independent accumulators: each popcnt chain
    // is data-independent, so the four issue in parallel instead of
    // serializing on one running sum (and the fixed trip count over a
    // word block vectorizes cleanly). The scalar tail covers top_ % 4.
    int c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    int i = 0;
    for (; i + 4 <= top_; i += 4) {
      c0 += std::popcount(w_[i]);
      c1 += std::popcount(w_[i + 1]);
      c2 += std::popcount(w_[i + 2]);
      c3 += std::popcount(w_[i + 3]);
    }
    for (; i < top_; ++i) c0 += std::popcount(w_[i]);
    return (c0 + c1) + (c2 + c3);
  }
  constexpr bool empty() const {
    for (int i = 0; i < top_; ++i) {
      if (w_[i] != 0) return false;
    }
    return true;
  }

  /// Word 0 of the set — the full mask for n <= 64 sets. Kept for trace
  /// values, derived seeds and digests recorded before the multi-word
  /// widening; prefer word()/word_count() for anything that must see ids
  /// >= 64.
  constexpr std::uint64_t mask() const { return w_[0]; }

  /// The i-th 64-bit word (ids 64*i .. 64*i+63). Requires 0 <= i < kWords.
  constexpr std::uint64_t word(int i) const { return w_[i]; }
  static constexpr int word_count() { return kWords; }

  /// Number of words up to and including the highest nonzero one (0 for
  /// the empty set) — the natural trimmed length for wire encoding.
  constexpr int words_used() const {
    for (int i = top_ - 1; i >= 0; --i) {
      if (w_[i] != 0) return i + 1;
    }
    return 0;
  }

  /// A 64-bit digest of the whole set. Equals mask() whenever all ids are
  /// < 64, so n <= 64 seed derivations keep their historical values.
  constexpr std::uint64_t hash() const {
    std::uint64_t h = w_[0];
    for (int i = 1; i < top_; ++i) {
      if (w_[i] != 0) {
        h ^= (w_[i] + static_cast<std::uint64_t>(i)) * 0x9e3779b97f4a7c15ULL;
      }
    }
    return h;
  }

  constexpr ProcSet operator|(const ProcSet& o) const {
    ProcSet r;
    r.top_ = top_ > o.top_ ? top_ : o.top_;
    for (int i = 0; i < r.top_; ++i) r.w_[i] = w_[i] | o.w_[i];
    return r;
  }
  constexpr ProcSet operator&(const ProcSet& o) const {
    ProcSet r;
    r.top_ = top_ < o.top_ ? top_ : o.top_;
    for (int i = 0; i < r.top_; ++i) r.w_[i] = w_[i] & o.w_[i];
    return r;
  }
  /// Set difference: elements of *this not in o.
  constexpr ProcSet operator-(const ProcSet& o) const {
    ProcSet r;
    r.top_ = top_;
    for (int i = 0; i < top_; ++i) r.w_[i] = w_[i] & ~o.w_[i];
    return r;
  }
  constexpr ProcSet& operator|=(const ProcSet& o) {
    for (int i = 0; i < o.top_; ++i) w_[i] |= o.w_[i];
    if (o.top_ > top_) top_ = o.top_;
    return *this;
  }
  constexpr ProcSet& operator&=(const ProcSet& o) {
    const int m = top_ < o.top_ ? top_ : o.top_;
    for (int i = 0; i < m; ++i) w_[i] &= o.w_[i];
    for (int i = m; i < top_; ++i) w_[i] = 0;
    top_ = m;
    return *this;
  }

  constexpr bool operator==(const ProcSet& o) const {
    const int hi = top_ > o.top_ ? top_ : o.top_;
    for (int i = 0; i < hi; ++i) {
      if (w_[i] != o.w_[i]) return false;
    }
    return true;
  }
  /// Total order: lexicographic on words from most significant down, so
  /// single-word sets order exactly by mask value as before.
  constexpr std::strong_ordering operator<=>(const ProcSet& o) const {
    const int hi = top_ > o.top_ ? top_ : o.top_;
    for (int i = hi - 1; i >= 0; --i) {
      if (w_[i] != o.w_[i]) return w_[i] <=> o.w_[i];
    }
    return std::strong_ordering::equal;
  }

  /// True iff *this is a subset of o.
  constexpr bool subset_of(const ProcSet& o) const {
    for (int i = 0; i < top_; ++i) {
      if ((w_[i] & ~o.w_[i]) != 0) return false;
    }
    return true;
  }
  constexpr bool intersects(const ProcSet& o) const {
    const int m = top_ < o.top_ ? top_ : o.top_;
    for (int i = 0; i < m; ++i) {
      if ((w_[i] & o.w_[i]) != 0) return true;
    }
    return false;
  }

  /// |*this & o| without materializing the intersection — the checker
  /// hot loops (per-instant alive-set scans) only need the cardinality.
  /// Same unroll shape as size(): four independent popcnt chains over
  /// the AND of each word pair, scalar tail for the remainder.
  constexpr int count_intersection(const ProcSet& o) const {
    const int m = top_ < o.top_ ? top_ : o.top_;
    int c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      c0 += std::popcount(w_[i] & o.w_[i]);
      c1 += std::popcount(w_[i + 1] & o.w_[i + 1]);
      c2 += std::popcount(w_[i + 2] & o.w_[i + 2]);
      c3 += std::popcount(w_[i + 3] & o.w_[i + 3]);
    }
    for (; i < m; ++i) c0 += std::popcount(w_[i] & o.w_[i]);
    return (c0 + c1) + (c2 + c3);
  }

  /// Smallest id in the set; -1 if empty. (The paper's min{j | ...}.)
  constexpr ProcessId min() const {
    // Find the first non-empty word four at a time (one OR + compare
    // per block instead of four branches), then resolve the bit inside
    // the block; only the final countr_zero touches a specific word.
    int i = 0;
    for (; i + 4 <= top_; i += 4) {
      if ((w_[i] | w_[i + 1] | w_[i + 2] | w_[i + 3]) != 0) break;
    }
    for (; i < top_; ++i) {
      if (w_[i] != 0) return 64 * i + std::countr_zero(w_[i]);
    }
    return -1;
  }

  /// The member of rank `rank` in increasing id order (0 is min());
  /// -1 if the set has at most `rank` members.
  constexpr ProcessId nth(int rank) const {
    for (int i = 0; i < top_; ++i) {
      std::uint64_t w = w_[i];
      const int c = std::popcount(w);
      if (rank < c) {
        for (; rank > 0; --rank) w &= w - 1;  // drop the lowest members
        return 64 * i + std::countr_zero(w);
      }
      rank -= c;
    }
    return -1;
  }

  std::vector<ProcessId> to_vector() const {
    std::vector<ProcessId> out;
    out.reserve(static_cast<std::size_t>(size()));
    for (ProcessId id : *this) out.push_back(id);
    return out;
  }

  /// Minimal forward iteration support (range-for over member ids, in
  /// increasing order). The iterator snapshots the used words, so
  /// iterating a temporary is safe.
  class iterator {
   public:
    constexpr iterator(const std::array<std::uint64_t, kWords>& w, int limit,
                       int wi)
        : limit_(limit), wi_(wi) {
      for (int i = 0; i < limit; ++i) w_[i] = w[i];
      advance();
    }
    constexpr ProcessId operator*() const {
      return 64 * wi_ + std::countr_zero(cur_);
    }
    constexpr iterator& operator++() {
      cur_ &= cur_ - 1;
      advance();
      return *this;
    }
    constexpr bool operator!=(const iterator& o) const {
      return wi_ != o.wi_ || cur_ != o.cur_;
    }

   private:
    constexpr void advance() {
      while (cur_ == 0 && wi_ < kWords) {
        if (++wi_ >= limit_) {
          wi_ = kWords;
          break;
        }
        cur_ = w_[wi_];
      }
    }
    // Only [0, limit_) is written or read; leaving the tail uninitialized
    // keeps begin()/end() cheap for the common one-word sets.
    std::array<std::uint64_t, kWords> w_;
    int limit_;
    int wi_;
    std::uint64_t cur_ = 0;
  };
  constexpr iterator begin() const { return iterator(w_, top_, -1); }
  constexpr iterator end() const { return iterator(w_, 0, kWords); }

  std::string to_string() const;

  /// Lowercase hex of the set's bits, no leading zeros, no 0x prefix
  /// ("0" for the empty set). Single-word sets serialize exactly as the
  /// historical `std::hex << mask()` did.
  std::string to_hex() const;
  /// Inverse of to_hex(); also accepts an optional 0x/0X prefix. Throws
  /// std::invalid_argument on empty input, non-hex digits, or more than
  /// kWords * 16 digits.
  static ProcSet from_hex(std::string_view hex);

 private:
  std::array<std::uint64_t, kWords> w_{};
  // Upper bound on words_used(): w_[i] == 0 for every i >= top_. A loop
  // bound only — never part of a set's observable value (two sets with
  // different top_ but equal words compare equal).
  int top_ = 0;
};

std::ostream& operator<<(std::ostream& os, const ProcSet& s);

}  // namespace saf
