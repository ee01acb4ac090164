// Bucketed calendar queue for the discrete-event engine.
//
// The simulator's pending-event set is keyed on (virtual time, insertion
// seq): events pop in time order, ties broken by schedule() order. A
// binary heap gives that order in O(log n) per operation with poor
// locality; this queue exploits the workload instead — virtual time is a
// small integer, events cluster within a few hundred time units of `now`
// (message delays, tick periods, protocol timeouts), and seq order equals
// push order.
//
// Design: a ring of kWindow per-instant FIFO buckets covers the window
// [window_base, window_base + kWindow). Pushes into the window append to
// the bucket of their instant — push order IS seq order, so a bucket is
// a ready-sorted run. Pushes beyond the window go to a small binary-heap
// overflow; when the ring drains, the window advances (or jumps to the
// overflow minimum) and eligible overflow events migrate into fresh
// buckets in (time, seq) order. Steady state: push and pop are O(1)
// amortized with zero allocation (bucket vectors recycle their capacity).
//
// Determinism contract: the pop order is EXACTLY ascending (time, seq) —
// bit-for-bit the order of the std::priority_queue implementation this
// replaced; tests/test_event_queue.cpp checks it differentially against
// a reference model.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/types.h"

namespace saf::sim {

struct Message;

/// Sentinel recipient for an aggregated broadcast delivery: one queue
/// event whose dispatch hands the message to every process in id order
/// (see Network's batched-broadcast path).
inline constexpr ProcessId kBroadcastRecipient = -2;

/// What a closure event does — digest metadata for the DFS checker's
/// state fingerprint (closures themselves are opaque, so the engine tags
/// each one it schedules). kClosure covers untyped user schedule() calls.
enum class EventKind : std::uint8_t {
  kClosure = 0,
  kTick,
  kStart,
  kCrash,
  kWake,
};

/// One scheduled event. Message deliveries are first-class (`msg` set,
/// POD payload, no closure allocation — the hot path); everything else
/// (protocol starts, ticks, timers, crashes, user schedule() calls)
/// carries a closure whose captures fit std::function's inline storage.
struct Event {
  Time time = 0;
  std::uint64_t seq = 0;
  ProcessId to = -1;             ///< recipient, or kBroadcastRecipient
  /// Delivery events: the message's oldest_generation() when scheduled,
  /// the arena generation this event keeps alive (sim/message.h).
  std::uint32_t gen = 0;
  const Message* msg = nullptr;  ///< non-null => delivery event
  std::function<void()> fn;      ///< closure event otherwise
  EventKind kind = EventKind::kClosure;  ///< closure digest tag
  ProcessId owner = -1;  ///< closure's process, -1 for global (ticks)
};

class EventQueue {
 public:
  EventQueue();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(Event e);

  /// The minimum (time, seq) event. Requires !empty(). The reference is
  /// invalidated by the next push/pop.
  const Event& peek();

  /// Removes and returns the minimum event. Requires !empty().
  Event pop();

  /// The pending events at the minimum instant, in seq order — the
  /// "ready run" the DFS race chooser picks from. Requires !empty(). The
  /// span is invalidated by the next push/pop.
  std::span<const Event> ready();

  /// Removes and returns the i-th ready event (out-of-order dispatch
  /// within the instant — the race chooser's seam; the other ready
  /// events keep their relative seq order). The i events before it move
  /// up one slot, so pop_ready(0) is pop(). Requires i < ready().size().
  Event pop_ready(std::size_t i);

  /// Invokes fn(const Event&) on every pending event, in no particular
  /// order (state-digest fold; the caller order-normalizes).
  template <typename Fn>
  void for_each_pending(Fn&& fn) const {
    for (const Bucket& b : ring_) {
      for (std::size_t i = b.head; i < b.events.size(); ++i) fn(b.events[i]);
    }
    for (const Event& e : overflow_) fn(e);
  }

 private:
  // Power of two; covers tick periods, message delays and protocol
  // timeouts in one window for every workload in the repo. Larger only
  // costs idle-bucket scan time and resident vector headers.
  static constexpr std::size_t kWindow = 1024;
  static constexpr Time kMask = static_cast<Time>(kWindow - 1);

  struct Bucket {
    std::vector<Event> events;
    std::size_t head = 0;  ///< events[0..head) already popped
  };

  Bucket& bucket_at(Time t) {
    return ring_[static_cast<std::size_t>(t & kMask)];
  }
  /// Positions cursor_ on the instant holding the minimum event,
  /// advancing the window / draining overflow as needed.
  void advance_to_min();
  /// Moves overflow events inside the current window into the ring.
  void migrate_overflow();
  /// Cold path: a push landed before the current window (legal after a
  /// horizon-break peek advanced the cursor). Rebases the window at `t`.
  void rewind(Time t);

  std::vector<Bucket> ring_;
  std::vector<Event> overflow_;  ///< min-heap on (time, seq)
  Time window_base_ = 0;  ///< ring covers [window_base_, window_base_+kWindow)
  Time cursor_ = 0;       ///< next instant to drain; >= window_base_
  std::size_t size_ = 0;
};

}  // namespace saf::sim
