// The lower wheel (paper Fig 5): from ◇S_x to stabilized representatives.
//
// All processes scan the same ring of (candidate ℓ, x-subset X) positions
// (util::MemberRing). A process inside the current X that suspects the
// current candidate R-broadcasts X_MOVE(ℓ, X); every process consumes the
// same multiset of X_MOVE messages in ring order, so cursors converge.
// The ◇S_x accuracy eventually pins a set X* with a member ℓ* that X*'s
// processes stop suspecting — the wheel then stops (quiescence, Cor 1).
//
// Output (Theorem 3): eventually there is a set X of x processes such
// that every process outside X outputs repr_i = i, and X's alive members
// output a common correct representative ℓ ∈ X (or X crashed entirely).
//
// Faithfulness note: the paper's task T1 is an unthrottled loop that may
// re-broadcast the same X_MOVE(ℓ, X) many times while waiting for its own
// delivery; we send each (cursor) position's X_MOVE at most once per
// visit, a legal scheduling of the same algorithm that keeps message
// counts readable.
#pragma once

#include <cstdint>
#include <map>

#include "fd/emulated.h"
#include "fd/oracle.h"
#include "sim/process.h"
#include "util/ring.h"

namespace saf::core {

struct XMoveMsg final : sim::MessageOf<XMoveMsg> {
  XMoveMsg(ProcessId l, ProcSet s) : leader(l), set(s) {}
  std::string_view tag() const override { return "x_move"; }
  void digest_into(sim::StateDigest& d) const override {
    d.mix_tag("x_move");
    d.mix_id(leader);
    d.mix_set(set);
  }
  ProcessId leader;
  ProcSet set;
};

class LowerWheelComponent {
 public:
  LowerWheelComponent(sim::Process& host, const util::MemberRing& ring,
                      const fd::SuspectOracle& sx,
                      fd::EmulatedReprStore& store);

  /// Task T1 body: refresh repr_i; emit X_MOVE when the current candidate
  /// is suspected. Call from the host's on_tick().
  void tick();

  /// Task T2: consume X_MOVE messages (guarded, in ring order). Returns
  /// true iff the message was an X_MOVE.
  bool on_rdeliver(const sim::Message& m);

  ProcessId repr() const { return repr_; }
  std::size_t cursor() const { return cursor_; }

  /// DFS state fingerprint: cursor, representative and the pending
  /// X_MOVE counters, folded in map-key order (deterministic; the
  /// two-wheels instances run with the identity symmetry group, so no
  /// canonical reordering is needed).
  void state_digest(sim::StateDigest& d) const;

 private:
  using PositionKey = std::pair<ProcessId, ProcSet>;
  static PositionKey key(ProcessId leader, ProcSet set) {
    return {leader, set};
  }
  void drain();
  void publish();

  sim::Process& host_;
  const util::MemberRing& ring_;
  const fd::SuspectOracle& sx_;
  fd::EmulatedReprStore& store_;
  std::size_t cursor_ = 0;
  ProcessId repr_;
  std::size_t last_sent_cursor_;
  std::map<PositionKey, int> pending_;  ///< undelivered-in-order X_MOVEs
};

/// A standalone process running only the lower wheel (FIG5 experiments).
class LowerWheelProcess final : public sim::Process {
 public:
  LowerWheelProcess(ProcessId id, int n, int t, const util::MemberRing& ring,
                    const fd::SuspectOracle& sx, fd::EmulatedReprStore& store)
      : Process(id, n, t), comp_(*this, ring, sx, store) {}

  void boot() override {}  // purely handler/tick driven
  void on_tick() override { comp_.tick(); }
  void on_rdeliver(const sim::Message& m) override { comp_.on_rdeliver(m); }

  const LowerWheelComponent& component() const { return comp_; }

 private:
  LowerWheelComponent comp_;
};

}  // namespace saf::core
