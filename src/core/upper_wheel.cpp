#include "core/upper_wheel.h"

#include "trace/tracer.h"
#include "util/check.h"

namespace saf::core {

UpperWheelComponent::UpperWheelComponent(sim::Process& host,
                                         const util::SubsetPairRing& ring,
                                         const fd::QueryOracle& phi,
                                         std::function<ProcessId()> my_repr,
                                         fd::EmulatedLeaderStore& store,
                                         Time inquiry_period)
    : host_(host),
      ring_(ring),
      phi_(phi),
      my_repr_(std::move(my_repr)),
      store_(store),
      inquiry_period_(inquiry_period),
      last_sent_cursor_(ring.size()) {
  SAF_CHECK(my_repr_ != nullptr);
  util::require(inquiry_period >= 1, "UpperWheel: inquiry_period >= 1");
}

bool UpperWheelComponent::response_from_outer() const {
  const ProcSet outer = ring_.at(cursor_).outer;
  for (const auto& [sender, repr] : responses_) {
    if (outer.contains(sender)) return true;
  }
  return false;
}

sim::ProtocolTask UpperWheelComponent::main() {
  while (true) {
    ++attempt_;
    responses_.clear();
    host_.broadcast_msg(InquiryMsg{attempt_});
    // Line 3: wait for a response from the (dynamically current) Y, or
    // for the oracle to report Y entirely crashed.
    co_await host_.until([this] {
      return response_from_outer() ||
             phi_.query(host_.id(), ring_.at(cursor_).outer, host_.now());
    });
    // Lines 4-6: move if responses exist but none names a member of L.
    const auto& pos = ring_.at(cursor_);
    ProcSet rec_from;
    for (const auto& [sender, repr] : responses_) {
      if (pos.outer.contains(sender) && repr >= 0) rec_from.insert(repr);
    }
    if (!rec_from.empty() && !rec_from.intersects(pos.inner) &&
        last_sent_cursor_ != cursor_) {
      last_sent_cursor_ = cursor_;
      host_.rbroadcast_msg(LMoveMsg{pos.inner, pos.outer});
    }
    publish();
    // Throttle the inquiry loop (the paper's loop is untimed; any pace
    // is a legal schedule, and it must not spin within one instant).
    co_await host_.sleep_for(inquiry_period_);
  }
}

bool UpperWheelComponent::on_message(const sim::Message& m) {
  // The codec bounds ids off the wire by kMaxProcs, not by n. A message
  // naming no process of this run is consumed and ignored: a repr >= n
  // would count as a representative outside every leader set.
  const auto is_peer = [this](ProcessId id) {
    return id >= 0 && id < host_.n();
  };
  if (const auto* inq = sim::msg_cast<InquiryMsg>(m)) {
    // Task T3: answer with the current lower-wheel representative.
    if (is_peer(inq->sender)) {
      host_.send_to(inq->sender, ResponseMsg{inq->attempt, my_repr_()});
    }
    return true;
  }
  if (const auto* resp = sim::msg_cast<ResponseMsg>(m)) {
    if (resp->attempt == attempt_ && is_peer(resp->sender) &&
        resp->repr < host_.n()) {
      responses_.emplace_back(resp->sender, resp->repr);
    }
    return true;
  }
  return false;
}

bool UpperWheelComponent::on_rdeliver(const sim::Message& m) {
  const auto* mv = sim::msg_cast<LMoveMsg>(m);
  if (mv == nullptr) return false;
  ++pending_[key(mv->inner, mv->outer)];
  drain();
  return true;
}

void UpperWheelComponent::drain() {
  while (true) {
    const auto& pos = ring_.at(cursor_);
    auto it = pending_.find(key(pos.inner, pos.outer));
    if (it == pending_.end() || it->second == 0) break;
    --it->second;
    cursor_ = ring_.next(cursor_);
    last_sent_cursor_ = ring_.size();
    host_.tracer().protocol(trace::Kind::kLMove, host_.now(), host_.id(),
                            static_cast<std::int64_t>(cursor_), "upper");
  }
  publish();
}

ProcSet UpperWheelComponent::trusted_now() const {
  const auto& pos = ring_.at(cursor_);
  const Time now = host_.now();
  if (phi_.query(host_.id(), pos.outer, now)) {
    // Case A: Y is entirely crashed. At most y-1 crashes remain outside
    // Y, so the smallest outside j with query(Y ∪ {j}) false is alive
    // (for y <= 1 every outside process is alive and the filter is
    // vacuous since |Y ∪ {j}| > t always answers false).
    const ProcSet outside = ProcSet::full(host_.n()) - pos.outer;
    for (ProcessId j : outside) {
      ProcSet yj = pos.outer;
      yj.insert(j);
      if (!phi_.query(host_.id(), yj, now)) return ProcSet{j};
    }
    // All extended queries answered true: only possible transiently with
    // an eventual-class oracle before stabilization. Any fallback output
    // is legal during anarchy.
    return ProcSet{outside.min()};
  }
  // Case B: trust the current candidate leader set.
  return pos.inner;
}

void UpperWheelComponent::publish() {
  store_.set(host_.id(), host_.now(), trusted_now());
}

void UpperWheelComponent::state_digest(sim::StateDigest& d) const {
  d.mix_u64(cursor_);
  d.mix_u64(last_sent_cursor_);
  d.mix_u64(attempt_);
  d.mix_u64(responses_.size());
  for (const auto& [from, repr] : responses_) {
    d.mix_id(from);
    d.mix_id(repr);
  }
  d.mix_u64(pending_.size());
  for (const auto& [pos, count] : pending_) {
    d.mix_set(pos.first);
    d.mix_set(pos.second);
    d.mix_i64(count);
  }
}

}  // namespace saf::core
