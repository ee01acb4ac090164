// The upper wheel (paper Fig 6): from ◇φ_y + representatives to Ω_z.
//
// All processes scan the same ring of (L, Y) positions
// (util::SubsetPairRing with |Y| = t-y+1 and |L| = z): Y is a query
// region, L ⊆ Y a candidate leader set. A process repeatedly broadcasts
// INQUIRY and waits for a RESPONSE from a member of the current Y (each
// response carries the responder's current lower-wheel repr), or for
// query(Y) to report Y entirely crashed. If responses arrive but none
// carries an identity inside L, the process R-broadcasts L_MOVE(L, Y);
// L_MOVEs are consumed in ring order like X_MOVEs, so cursors converge.
//
// The wheel stops at a position where X* (the lower wheel's stable set)
// is inside Y, Y \ X* = L \ {ℓ*}, and |X* ∩ L| = {ℓ*}: every response
// from Y then carries an identity in L (members of X* answer ℓ*, members
// of L \ X* answer themselves), so no one moves (paper Fig 7 picture).
//
// trusted_i (task T5):
//   * query(Y) true  (Y entirely crashed) — the smallest j outside Y
//     whose query(Y ∪ {j}) is false (j alive); a singleton set.
//   * otherwise — the current L.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "fd/emulated.h"
#include "fd/oracle.h"
#include "sim/process.h"
#include "util/ring.h"

namespace saf::core {

struct InquiryMsg final : sim::MessageOf<InquiryMsg> {
  explicit InquiryMsg(std::uint64_t a) : attempt(a) {}
  std::string_view tag() const override { return "inquiry"; }
  void digest_into(sim::StateDigest& d) const override {
    d.mix_tag("inquiry");
    d.mix_u64(attempt);
  }
  std::uint64_t attempt;
};

struct ResponseMsg final : sim::MessageOf<ResponseMsg> {
  ResponseMsg(std::uint64_t a, ProcessId r) : attempt(a), repr(r) {}
  std::string_view tag() const override { return "response"; }
  void digest_into(sim::StateDigest& d) const override {
    d.mix_tag("response");
    d.mix_u64(attempt);
    d.mix_id(repr);
  }
  std::uint64_t attempt;
  ProcessId repr;
};

struct LMoveMsg final : sim::MessageOf<LMoveMsg> {
  LMoveMsg(ProcSet l, ProcSet y) : inner(l), outer(y) {}
  std::string_view tag() const override { return "l_move"; }
  void digest_into(sim::StateDigest& d) const override {
    d.mix_tag("l_move");
    d.mix_set(inner);
    d.mix_set(outer);
  }
  ProcSet inner;  ///< L
  ProcSet outer;  ///< Y
};

class UpperWheelComponent {
 public:
  /// `my_repr` reads the host's current lower-wheel representative (or
  /// any substitute source for standalone experiments).
  UpperWheelComponent(sim::Process& host, const util::SubsetPairRing& ring,
                      const fd::QueryOracle& phi,
                      std::function<ProcessId()> my_repr,
                      fd::EmulatedLeaderStore& store, Time inquiry_period);

  /// Task T1: the inquiry / move loop. Spawn from the host's boot().
  sim::ProtocolTask main();

  /// Tasks T3 (answer inquiries) + response recording. Returns true iff
  /// the message was upper-wheel traffic.
  bool on_message(const sim::Message& m);

  /// Task T2: consume L_MOVE messages in ring order.
  bool on_rdeliver(const sim::Message& m);

  /// Refresh the published trusted set; call from on_tick().
  void tick() { publish(); }

  /// Task T5: the Ω_z output read.
  ProcSet trusted_now() const;

  std::size_t cursor() const { return cursor_; }

  /// DFS state fingerprint: cursor, attempt counter, recorded responses
  /// (in receipt order) and pending L_MOVE counters. main()'s two
  /// suspension points need no mirror — they are distinguished by the
  /// host's waiter kinds (predicate wait vs sleep).
  void state_digest(sim::StateDigest& d) const;

 private:
  using PositionKey = std::pair<ProcSet, ProcSet>;
  static PositionKey key(ProcSet inner, ProcSet outer) {
    return {inner, outer};
  }
  void drain();
  void publish();
  /// True iff a response to the current attempt arrived from a member of
  /// the *current* Y (Y may change while waiting).
  bool response_from_outer() const;

  sim::Process& host_;
  const util::SubsetPairRing& ring_;
  const fd::QueryOracle& phi_;
  std::function<ProcessId()> my_repr_;
  fd::EmulatedLeaderStore& store_;
  Time inquiry_period_;
  std::size_t cursor_ = 0;
  std::size_t last_sent_cursor_;
  std::uint64_t attempt_ = 0;
  std::vector<std::pair<ProcessId, ProcessId>> responses_;  ///< (sender, repr)
  std::map<PositionKey, int> pending_;
};

}  // namespace saf::core
