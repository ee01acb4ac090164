#include "sim/reliable_broadcast.h"

#include <algorithm>

#include "sim/process.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace saf::sim {

namespace {
std::uint64_t key_of(ProcessId origin, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(origin) << 40) | seq;
}
}  // namespace

const Message* RbEnvelope::corrupted(util::Arena& arena,
                                     util::Rng& rng) const {
  const Message* bad_inner = inner->corrupted(arena, rng);
  if (bad_inner == nullptr) return nullptr;
  auto* env = arena.create<RbEnvelope>(*this);
  env->inner = bad_inner;
  return env;
}

void RbLayer::enable_acks(RbRetryParams params) {
  SAF_CHECK_MSG(params.backoff_base >= 1, "backoff_base must be >= 1");
  SAF_CHECK_MSG(params.max_retries >= 0, "max_retries must be >= 0");
  acks_enabled_ = true;
  params_ = params;
}

void RbLayer::rbroadcast(const Message* m) {
  auto* env = owner_.arena().create<RbEnvelope>();
  env->sender = owner_.id();
  env->origin = owner_.id();
  env->origin_seq = next_seq_++;
  env->inner = m;
  owner_.broadcast_raw(env);
  if (acks_enabled_) track(env);
}

bool RbSeenSet::insert(ProcessId origin, std::uint64_t seq) {
  SAF_CHECK(origin >= 0);
  const auto o = static_cast<std::size_t>(origin);
  if (o >= floors_.size()) floors_.resize(o + 1, 0);
  std::uint64_t& lowest_unseen = floors_[o];
  if (seq < lowest_unseen) return false;
  if (seq > lowest_unseen) return above_.emplace(origin, seq).second;
  ++lowest_unseen;
  for (auto it = above_.find({origin, lowest_unseen}); it != above_.end();
       it = above_.find({origin, lowest_unseen})) {
    above_.erase(it);
    ++lowest_unseen;
  }
  return true;
}

std::uint64_t RbSeenSet::floor(ProcessId origin) const {
  const auto o = static_cast<std::size_t>(origin);
  return origin < 0 || o >= floors_.size() ? 0 : floors_[o];
}

std::uint64_t RbSeenSet::size() const {
  std::uint64_t total = above_.size();
  for (const std::uint64_t f : floors_) total += f;
  return total;
}

void RbSeenSet::digest(StateDigest& d) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(size());
  const auto key = [&](ProcessId origin, std::uint64_t seq) {
    StateDigest kd(d.perm());
    kd.mix_id(origin);
    kd.mix_u64(seq);
    keys.push_back(kd.value());
  };
  for (std::size_t o = 0; o < floors_.size(); ++o) {
    for (std::uint64_t seq = 0; seq < floors_[o]; ++seq) {
      key(static_cast<ProcessId>(o), seq);
    }
  }
  for (const auto& [origin, seq] : above_) key(origin, seq);
  std::sort(keys.begin(), keys.end());
  d.mix_u64(keys.size());
  for (const std::uint64_t v : keys) d.mix_u64(v);
}

void RbLayer::track(const RbEnvelope* env) {
  const std::uint64_t key = key_of(env->origin, env->origin_seq);
  Pending& p = pending_[key];
  if (p.env != nullptr) owner_.sim_->unpin(p.gen);
  p.env = env;
  p.gen = owner_.sim_->pin(*env);
  p.attempts = 0;
  p.unacked = ProcSet::full(owner_.n());
  schedule_retry(key);
}

void RbLayer::schedule_retry(std::uint64_t key) {
  const Pending& p = pending_.at(key);
  const int shift = std::min(p.attempts, 6);
  const Time delay = params_.backoff_base << shift;
  owner_.sim_->schedule(owner_.now() + delay, [this, key] { retry(key); });
}

void RbLayer::retire(
    std::unordered_map<std::uint64_t, Pending>::iterator it) {
  owner_.sim_->unpin(it->second.gen);
  pending_.erase(it);
}

void RbLayer::retry(std::uint64_t key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;  // fully acked — tracking retired
  if (owner_.is_crashed()) return;
  Pending& p = it->second;
  if (p.unacked.empty() || p.attempts >= params_.max_retries) {
    retire(it);
    return;
  }
  ++p.attempts;
  for (ProcessId q : p.unacked) {
    owner_.tracer().retransmit(owner_.now(), owner_.id(), q, p.env->tag(),
                               p.attempts);
    owner_.send_raw(q, p.env);
  }
  schedule_retry(key);
}

void RbLayer::digest(StateDigest& d) const {
  d.mix_u64(next_seq_);
  d.mix_bool(acks_enabled_);
  seen_.digest(d);
}

bool RbLayer::intercept(const Message& m) {
  if (acks_enabled_) {
    if (const auto* ack = msg_cast<RbAckMsg>(m)) {
      const std::uint64_t key = key_of(ack->origin, ack->origin_seq);
      auto it = pending_.find(key);
      if (it != pending_.end()) {
        it->second.unacked.erase(ack->sender);
        if (it->second.unacked.empty()) retire(it);
      }
      return true;
    }
  }
  const auto* env = msg_cast<RbEnvelope>(m);
  if (env == nullptr) return false;
  if (acks_enabled_) {
    // Ack EVERY copy received (duplicates included): the copy's
    // transport-level sender is whoever would otherwise retransmit it.
    auto* ack = owner_.arena().create<RbAckMsg>();
    ack->sender = owner_.id();
    ack->origin = env->origin;
    ack->origin_seq = env->origin_seq;
    owner_.send_raw(env->sender, ack);
  }
  // Only a malformed datagram names an origin outside the run; no
  // process broadcast it, and the dedup set indexes origins: drop it.
  if (env->origin < 0 || env->origin >= owner_.n()) return true;
  if (!seen_.insert(env->origin, env->origin_seq)) {
    return true;  // duplicate — Integrity
  }
  // Forward before delivering: once any correct process delivers, every
  // correct process has the envelope in flight — Termination. The copy
  // re-stamps the forwarder as transport-level sender; inner is shared
  // (arena-owned, immutable), and the copy's oldest_generation() keeps
  // inner's arena generation pinned while the copy is in flight.
  if (env->origin != owner_.id()) {
    auto* fwd = owner_.arena().create<RbEnvelope>(*env);
    fwd->sender = owner_.id();
    owner_.broadcast_raw(fwd);
    if (acks_enabled_) track(fwd);
  }
  owner_.on_rdeliver(*env->inner);
  return true;
}

}  // namespace saf::sim
