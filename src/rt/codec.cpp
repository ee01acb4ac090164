#include "rt/codec.h"

#include "core/kset_agreement.h"
#include "core/lower_wheel.h"
#include "core/upper_wheel.h"
#include "sim/reliable_broadcast.h"

namespace saf::rt {

namespace {

// Stable wire type ids — part of the datagram format, never reordered.
enum : std::uint8_t {
  kPhase1 = 1,
  kPhase2 = 2,
  kDecision = 3,
  kRbEnvelope = 4,
  kRbAck = 5,
  kXMove = 6,
  kInquiry = 7,
  kResponse = 8,
  kLMove = 9,
  kHeartbeat = 10,
};

void put_u64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_i64(std::vector<std::uint8_t>* out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_i32(std::vector<std::uint8_t>* out, std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::uint8_t>(u >> (8 * i)));
  }
}

// ProcSet wire format: one length byte (number of 64-bit words, trailing
// zero words trimmed) followed by that many little-endian u64 words.
// A single-word set costs 9 bytes; the empty set costs 1.
void put_procset(std::vector<std::uint8_t>* out, const ProcSet& s) {
  const int used = s.words_used();
  out->push_back(static_cast<std::uint8_t>(used));
  for (int i = 0; i < used; ++i) put_u64(out, s.word(i));
}

/// Bounds-checked little-endian reader; `ok` latches any overrun.
struct Reader {
  const std::uint8_t* p;
  std::size_t left;
  bool ok = true;

  std::uint8_t u8() {
    if (left < 1) {
      ok = false;
      return 0;
    }
    --left;
    return *p++;
  }
  std::uint32_t u32() {
    if (left < 4) {
      ok = false;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(*p++) << (8 * i);
    left -= 4;
    return v;
  }
  std::uint64_t u64() {
    if (left < 8) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(*p++) << (8 * i);
    left -= 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  ProcSet procset() {
    const std::uint8_t used = u8();
    if (used > static_cast<std::uint8_t>(ProcSet::word_count())) {
      ok = false;
      return ProcSet();
    }
    std::uint64_t words[ProcSet::kWords] = {};
    for (int i = 0; i < used; ++i) words[i] = u64();
    if (!ok) return ProcSet();
    return ProcSet::from_words(words, used);
  }
};

}  // namespace

bool encode_message(const sim::Message& m, std::vector<std::uint8_t>* out) {
  // One kind() call, then a lookup: each branch's exact-type match makes
  // its downcast safe.
  const sim::MessageKind kind = m.kind();
  if (kind == sim::kind_of<core::Phase1Msg>()) {
    const auto* p1 = static_cast<const core::Phase1Msg*>(&m);
    out->push_back(kPhase1);
    put_i32(out, p1->sender);
    put_i32(out, p1->round);
    put_procset(out, p1->leaders);
    put_i64(out, p1->est);
    put_i32(out, p1->instance);
    return true;
  }
  if (kind == sim::kind_of<core::Phase2Msg>()) {
    const auto* p2 = static_cast<const core::Phase2Msg*>(&m);
    out->push_back(kPhase2);
    put_i32(out, p2->sender);
    put_i32(out, p2->round);
    put_i64(out, p2->aux);
    put_i32(out, p2->instance);
    return true;
  }
  if (kind == sim::kind_of<core::DecisionMsg>()) {
    const auto* d = static_cast<const core::DecisionMsg*>(&m);
    out->push_back(kDecision);
    put_i32(out, d->sender);
    put_i64(out, d->value);
    put_i32(out, d->instance);
    return true;
  }
  if (kind == sim::kind_of<sim::RbEnvelope>()) {
    const auto* env = static_cast<const sim::RbEnvelope*>(&m);
    out->push_back(kRbEnvelope);
    put_i32(out, env->sender);  // transport-level sender (origin/forwarder)
    put_i32(out, env->origin);
    put_u64(out, env->origin_seq);
    return env->inner != nullptr && encode_message(*env->inner, out);
  }
  if (kind == sim::kind_of<sim::RbAckMsg>()) {
    const auto* ack = static_cast<const sim::RbAckMsg*>(&m);
    out->push_back(kRbAck);
    put_i32(out, ack->sender);
    put_i32(out, ack->origin);
    put_u64(out, ack->origin_seq);
    return true;
  }
  if (kind == sim::kind_of<core::XMoveMsg>()) {
    const auto* x = static_cast<const core::XMoveMsg*>(&m);
    out->push_back(kXMove);
    put_i32(out, x->sender);
    put_i32(out, x->leader);
    put_procset(out, x->set);
    return true;
  }
  if (kind == sim::kind_of<core::InquiryMsg>()) {
    const auto* q = static_cast<const core::InquiryMsg*>(&m);
    out->push_back(kInquiry);
    put_i32(out, q->sender);
    put_u64(out, q->attempt);
    return true;
  }
  if (kind == sim::kind_of<core::ResponseMsg>()) {
    const auto* r = static_cast<const core::ResponseMsg*>(&m);
    out->push_back(kResponse);
    put_i32(out, r->sender);
    put_u64(out, r->attempt);
    put_i32(out, r->repr);
    return true;
  }
  if (kind == sim::kind_of<core::LMoveMsg>()) {
    const auto* l = static_cast<const core::LMoveMsg*>(&m);
    out->push_back(kLMove);
    put_i32(out, l->sender);
    put_procset(out, l->inner);
    put_procset(out, l->outer);
    return true;
  }
  return false;
}

namespace {

const sim::Message* decode_inner(Reader& r, util::Arena& arena, int depth);

template <typename M>
const sim::Message* stamped(util::Arena& arena, ProcessId sender, M msg) {
  auto* m = arena.create<M>(std::move(msg));
  m->sender = sender;
  return m;
}

/// Process ids index fixed-size ProcSet words and per-process tables, so
/// an id off the wire is taken only inside [0, kMaxProcs).
bool valid_id(ProcessId id) { return id >= 0 && id < kMaxProcs; }

const sim::Message* decode_inner(Reader& r, util::Arena& arena, int depth) {
  const std::uint8_t type = r.u8();
  const auto sender = static_cast<ProcessId>(r.i32());
  if (!r.ok || !valid_id(sender)) return nullptr;
  switch (type) {
    case kPhase1: {
      const auto round = static_cast<int>(r.i32());
      // Length-prefixed word array; the reader rejects a word count
      // beyond ProcSet capacity or a truncated array. (Historically a
      // fixed 8-byte mask, decoded with parentheses — ProcSet{u64}
      // would pick the initializer-list ctor and build {mask-as-id}.)
      const ProcSet leaders = r.procset();
      const std::int64_t est = r.i64();
      const auto instance = static_cast<int>(r.i32());
      if (!r.ok || est == core::kNoValue) return nullptr;
      return stamped(arena, sender,
                     core::Phase1Msg{round, leaders, est, instance});
    }
    case kPhase2: {
      const auto round = static_cast<int>(r.i32());
      const std::int64_t aux = r.i64();
      const auto instance = static_cast<int>(r.i32());
      if (!r.ok) return nullptr;
      return stamped(arena, sender, core::Phase2Msg{round, aux, instance});
    }
    case kDecision: {
      const std::int64_t value = r.i64();
      const auto instance = static_cast<int>(r.i32());
      if (!r.ok) return nullptr;
      return stamped(arena, sender, core::DecisionMsg{value, instance});
    }
    case kRbEnvelope: {
      if (depth > 0) return nullptr;  // envelopes never nest
      const auto origin = static_cast<ProcessId>(r.i32());
      const std::uint64_t origin_seq = r.u64();
      if (!r.ok || !valid_id(origin)) return nullptr;
      const sim::Message* inner = decode_inner(r, arena, depth + 1);
      if (inner == nullptr) return nullptr;
      auto* env = arena.create<sim::RbEnvelope>();
      env->sender = sender;
      env->origin = origin;
      env->origin_seq = origin_seq;
      env->inner = inner;
      return env;
    }
    case kRbAck: {
      const auto origin = static_cast<ProcessId>(r.i32());
      const std::uint64_t origin_seq = r.u64();
      if (!r.ok || !valid_id(origin)) return nullptr;
      auto* ack = arena.create<sim::RbAckMsg>();
      ack->sender = sender;
      ack->origin = origin;
      ack->origin_seq = origin_seq;
      return ack;
    }
    case kXMove: {
      const auto leader = static_cast<ProcessId>(r.i32());
      const ProcSet set = r.procset();
      if (!r.ok || !valid_id(leader)) return nullptr;
      return stamped(arena, sender, core::XMoveMsg{leader, set});
    }
    case kInquiry: {
      const std::uint64_t attempt = r.u64();
      if (!r.ok) return nullptr;
      return stamped(arena, sender, core::InquiryMsg{attempt});
    }
    case kResponse: {
      const std::uint64_t attempt = r.u64();
      const auto repr = static_cast<ProcessId>(r.i32());
      // -1: the responder has no representative yet.
      if (!r.ok || (repr != -1 && !valid_id(repr))) return nullptr;
      return stamped(arena, sender, core::ResponseMsg{attempt, repr});
    }
    case kLMove: {
      const ProcSet inner = r.procset();
      const ProcSet outer = r.procset();
      if (!r.ok) return nullptr;
      return stamped(arena, sender, core::LMoveMsg{inner, outer});
    }
    default:
      return nullptr;
  }
}

}  // namespace

const sim::Message* decode_message(const std::uint8_t* data, std::size_t len,
                                   util::Arena& arena) {
  Reader r{data, len};
  const sim::Message* m = decode_inner(r, arena, 0);
  // Trailing bytes mean the buffer is not one well-formed message.
  if (m == nullptr || r.left != 0) return nullptr;
  return m;
}

std::vector<std::uint8_t> encode_heartbeat(std::uint64_t hb_seq) {
  std::vector<std::uint8_t> out;
  out.push_back(kHeartbeat);
  put_u64(&out, hb_seq);
  return out;
}

bool decode_heartbeat(const std::uint8_t* data, std::size_t len,
                      std::uint64_t* hb_seq) {
  if (len != 9 || data[0] != kHeartbeat) return false;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data[1 + i]) << (8 * i);
  }
  *hb_seq = v;
  return true;
}

}  // namespace saf::rt
