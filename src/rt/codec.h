// Wire codec for the live runtime.
//
// The simulator hands protocol messages around as C++ objects; the live
// runtime has to flatten them onto UDP datagrams and rebuild them on the
// far side. The vocabulary is closed — the paper's protocols speak a
// fixed handful of message types (k-set phases, decisions, wheel moves,
// inquiries/responses, RB envelopes/acks) — so the codec is a simple
// tagged fixed-width little-endian format, bounds-checked on decode:
// a malformed or truncated buffer decodes to nullptr and is dropped,
// never delivered (the "no creation / no alteration" half of perfect
// links that the transport cannot provide for payload bytes).
//
// Heartbeats are a transport-level concern (they feed the failure
// detectors, not the protocols) and get their own entry points.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/message.h"
#include "util/arena.h"
#include "util/types.h"

namespace saf::rt {

/// Appends the encoding of `m` (including its sender stamp and, for RB
/// envelopes, the nested payload) to `out`. Returns false — leaving
/// `out` untouched — if the dynamic type is outside the rt vocabulary.
bool encode_message(const sim::Message& m, std::vector<std::uint8_t>* out);

/// Rebuilds a message from `data` into `arena` (the owning simulator's
/// current message-arena generation, so decoded messages have the same
/// lifetime as locally created ones). Returns nullptr on any malformed
/// input.
const sim::Message* decode_message(const std::uint8_t* data, std::size_t len,
                                   util::Arena& arena);

/// Heartbeat payloads. `hb_seq` is the sender's heartbeat counter
/// (diagnostics only — the monitors use arrival times).
std::vector<std::uint8_t> encode_heartbeat(std::uint64_t hb_seq);
/// True iff the payload is a heartbeat; fills `hb_seq` when it is.
bool decode_heartbeat(const std::uint8_t* data, std::size_t len,
                      std::uint64_t* hb_seq);

}  // namespace saf::rt
