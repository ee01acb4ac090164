#include "core/lower_wheel.h"

#include "trace/tracer.h"

namespace saf::core {

LowerWheelComponent::LowerWheelComponent(sim::Process& host,
                                         const util::MemberRing& ring,
                                         const fd::SuspectOracle& sx,
                                         fd::EmulatedReprStore& store)
    : host_(host),
      ring_(ring),
      sx_(sx),
      store_(store),
      repr_(host.id()),
      last_sent_cursor_(ring.size()) {}

void LowerWheelComponent::publish() {
  const auto& pos = ring_.at(cursor_);
  const ProcessId new_repr =
      pos.set.contains(host_.id()) ? pos.leader : host_.id();
  if (new_repr != repr_ || store_.get(host_.id()) != new_repr) {
    repr_ = new_repr;
    store_.set(host_.id(), host_.now(), repr_);
  }
}

void LowerWheelComponent::tick() {
  publish();
  const auto& pos = ring_.at(cursor_);
  if (pos.set.contains(host_.id()) && last_sent_cursor_ != cursor_ &&
      sx_.suspected(host_.id(), host_.now()).contains(pos.leader)) {
    last_sent_cursor_ = cursor_;
    host_.rbroadcast_msg(XMoveMsg{pos.leader, pos.set});
  }
}

bool LowerWheelComponent::on_rdeliver(const sim::Message& m) {
  const auto* mv = sim::msg_cast<XMoveMsg>(m);
  if (mv == nullptr) return false;
  ++pending_[key(mv->leader, mv->set)];
  drain();
  return true;
}

void LowerWheelComponent::state_digest(sim::StateDigest& d) const {
  d.mix_u64(cursor_);
  d.mix_id(repr_);
  d.mix_u64(last_sent_cursor_);
  d.mix_u64(pending_.size());
  for (const auto& [pos, count] : pending_) {
    d.mix_id(pos.first);
    d.mix_set(pos.second);
    d.mix_i64(count);
  }
}

void LowerWheelComponent::drain() {
  while (true) {
    const auto& pos = ring_.at(cursor_);
    auto it = pending_.find(key(pos.leader, pos.set));
    if (it == pending_.end() || it->second == 0) break;
    --it->second;
    cursor_ = ring_.next(cursor_);
    last_sent_cursor_ = ring_.size();  // new position: sending re-enabled
    host_.tracer().protocol(trace::Kind::kXMove, host_.now(), host_.id(),
                            static_cast<std::int64_t>(cursor_), "lower");
  }
  publish();
}

}  // namespace saf::core
