// Message base type for protocol payloads.
//
// Protocols define their own message structs derived from Message.
// Messages are immutable after sending and owned by the simulator's
// message arena: a send bump-allocates the payload once, every recipient
// of a broadcast shares the same object, and nothing is reference-counted
// on the delivery path.
//
// The arena is generational (Simulator::start_generation). A run that
// never starts a generation keeps every message until its Simulator is
// destroyed. A long-lived run (the decision service) starts one
// generation per window of instances, and each start resets the
// generation before the previous one. The invariant that makes the
// reset safe:
//
//   No pointer into a generation outlives it. Every message pointer
//   that survives the handler call it was passed to is counted against
//   the oldest generation it reaches (oldest_generation()): a pending
//   delivery event (counted by the simulator), an RB retransmission
//   entry (counted by RbLayer), and an envelope's inner payload
//   (reached through the envelope). start_generation() resets a
//   generation only when its count is zero. Protocol code must not
//   keep raw message pointers across deliveries; it keeps copies
//   (KSetCore's per-round buffers, the service's future-instance
//   buffer). Interned payload-free messages live in the simulator's
//   permanent arena, outside the generations.
//
// Debug builds check the invariant when a delivery is scheduled (the
// message's oldest generation must still be live) and again at the
// delivery itself (it must also equal the one counted at scheduling —
// memory reused by a later generation carries a newer stamp).
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/state_digest.h"
#include "util/arena.h"
#include "util/types.h"

namespace saf::util {
class Rng;
}  // namespace saf::util

namespace saf::sim {

/// Generation stamp of the simulator's permanent arena (never reset
/// before the simulator is destroyed).
inline constexpr std::uint32_t kPermanentGeneration = UINT32_MAX;

struct Message : util::ArenaStamped {
  virtual ~Message() = default;

  /// The oldest arena generation this message's storage or payload
  /// reaches: its own stamp, lowered by any arena message it points to.
  virtual std::uint32_t oldest_generation() const { return arena_generation; }

  /// Short stable tag used for per-kind accounting (quiescence measures,
  /// message-count benches). E.g. "x_move", "phase1", "inquiry".
  virtual std::string_view tag() const = 0;

  /// Fault-injection seam: returns an arena-owned copy of this message
  /// with its payload ints perturbed by `rng` (bounded corruption — the
  /// copy must still be structurally valid so handlers don't crash), or
  /// nullptr if this message type has nothing corruptible. The default
  /// is nullptr: corruption is opt-in per message type.
  virtual const Message* corrupted(util::Arena& arena, util::Rng& rng) const {
    (void)arena;
    (void)rng;
    return nullptr;
  }

  /// State-fingerprint seam (check/dfs): folds the payload into `d`.
  /// The default mixes only the tag — exact for payload-free messages;
  /// types carrying behavior-relevant payloads override it. Ids and id
  /// sets must flow through d.mix_id / d.mix_set so symmetry relabeling
  /// sees them; the sender is mixed by the caller.
  virtual void digest_into(StateDigest& d) const { d.mix_tag(tag()); }

  /// Filled in at send time.
  ProcessId sender = -1;
};

}  // namespace saf::sim
