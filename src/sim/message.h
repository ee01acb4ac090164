// Message base type for protocol payloads.
//
// Protocols define their own message structs, each `final` and derived
// from MessageOf<itself>, and dispatch on them with msg_cast.
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
//   keep raw message pointers across deliveries: it keeps the values
//   it needs (KSetCore's per-round receipt records) or, where it must
//   replay whole messages later, copies (the service's future-instance
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
#include <type_traits>

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

/// Identity of one concrete message type: the address of a per-type
/// anchor (see MessageOf). Opaque; compare for equality only.
using MessageKind = const void*;

struct Message : util::ArenaStamped {
  virtual ~Message() = default;

  /// Exact-type kind, for msg_cast. A type derived from MessageOf<T>
  /// returns T's kind; a type derived from Message directly has none.
  virtual MessageKind kind() const { return nullptr; }

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

/// Base of a concrete message type T (CRTP): `struct M final :
/// MessageOf<M>`. It adds no data, so the header stays 16 bytes; its
/// only member is T's kind, the address of an anchor that exists once
/// per type. There is no central list of kinds, so each layer names its
/// own messages.
template <class T>
struct MessageOf : Message {
  MessageKind kind() const final { return &kAnchor; }

  static constexpr char kAnchor = 0;
};

/// The kind of message type T, as returned by T's kind().
template <class T>
constexpr MessageKind kind_of() {
  static_assert(std::is_final_v<T> && std::is_base_of_v<MessageOf<T>, T>,
                "kind_of<T>: T must be a final MessageOf<T>");
  return &MessageOf<T>::kAnchor;
}

/// The message dispatch cast: `m` as a T if m's concrete type is T,
/// else nullptr. One virtual call and one compare; because T is final,
/// an exact-type match answers what an RTTI cast to T would.
template <class T>
const T* msg_cast(const Message& m) {
  return m.kind() == kind_of<T>() ? static_cast<const T*>(&m) : nullptr;
}

}  // namespace saf::sim
