#include "sim/event_queue.h"

#include <algorithm>

#include "util/check.h"

namespace saf::sim {

namespace {

/// Heap comparator: "a pops later than b". With std::push_heap this
/// yields a min-heap on (time, seq).
struct PopsLater {
  bool operator()(const Event& a, const Event& b) const {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }
};

}  // namespace

EventQueue::EventQueue() : ring_(kWindow) {}

void EventQueue::push(Event e) {
  SAF_CHECK_MSG(e.time >= 0, "event times are non-negative");
  if (e.time < window_base_) rewind(e.time);
  ++size_;
  if (e.time < window_base_ + static_cast<Time>(kWindow)) {
    if (e.time < cursor_) cursor_ = e.time;  // re-arm a drained instant
    bucket_at(e.time).events.push_back(std::move(e));
  } else {
    overflow_.push_back(std::move(e));
    std::push_heap(overflow_.begin(), overflow_.end(), PopsLater{});
  }
}

const Event& EventQueue::peek() {
  advance_to_min();
  Bucket& b = bucket_at(cursor_);
  return b.events[b.head];
}

Event EventQueue::pop() {
  advance_to_min();
  Bucket& b = bucket_at(cursor_);
  Event e = std::move(b.events[b.head++]);
  --size_;
  return e;
}

// ready() and pop_ready() rely on the bucket invariant: a non-empty
// bucket inside the window holds events of exactly one instant (pushes
// append to the bucket of their instant, buckets are cleared when
// drained, and pushes beyond the window go to the overflow heap), so
// after advance_to_min() the unpopped tail of bucket_at(cursor_) IS the
// full set of minimum-instant events, in seq order.

std::span<const Event> EventQueue::ready() {
  advance_to_min();
  const Bucket& b = bucket_at(cursor_);
  return std::span<const Event>(b.events).subspan(b.head);
}

Event EventQueue::pop_ready(std::size_t i) {
  advance_to_min();
  Bucket& b = bucket_at(cursor_);
  SAF_CHECK_MSG(b.head + i < b.events.size(), "pop_ready: index out of range");
  const auto first = b.events.begin() + static_cast<std::ptrdiff_t>(b.head);
  const auto pick = first + static_cast<std::ptrdiff_t>(i);
  Event e = std::move(*pick);
  std::move_backward(first, pick, pick + 1);
  ++b.head;
  --size_;
  return e;
}

void EventQueue::advance_to_min() {
  SAF_CHECK_MSG(size_ > 0, "peek/pop on an empty EventQueue");
  for (;;) {
    while (cursor_ < window_base_ + static_cast<Time>(kWindow)) {
      Bucket& b = bucket_at(cursor_);
      if (b.head < b.events.size()) return;
      // Fully drained: recycle the bucket (capacity retained) so the
      // slot is clean when the window wraps back onto it.
      b.events.clear();
      b.head = 0;
      ++cursor_;
    }
    // Ring exhausted — every remaining event is in the overflow heap,
    // whose minimum is >= the old window end. Jump the window straight
    // to that minimum and pull the overflow prefix in.
    SAF_CHECK(!overflow_.empty());
    window_base_ = overflow_.front().time;
    cursor_ = window_base_;
    migrate_overflow();
  }
}

void EventQueue::migrate_overflow() {
  const Time window_end = window_base_ + static_cast<Time>(kWindow);
  // pop_heap yields ascending (time, seq), so per-bucket appends keep
  // each bucket a seq-sorted run.
  while (!overflow_.empty() && overflow_.front().time < window_end) {
    std::pop_heap(overflow_.begin(), overflow_.end(), PopsLater{});
    Event e = std::move(overflow_.back());
    overflow_.pop_back();
    bucket_at(e.time).events.push_back(std::move(e));
  }
}

void EventQueue::rewind(Time t) {
  // Push everything still in the ring onto the overflow heap, rebase the
  // window at t, and migrate back. O(kWindow + k log k); only reachable
  // by scheduling after a run stopped at the horizon, never on the run
  // hot path.
  for (Bucket& b : ring_) {
    for (std::size_t i = b.head; i < b.events.size(); ++i) {
      overflow_.push_back(std::move(b.events[i]));
      std::push_heap(overflow_.begin(), overflow_.end(), PopsLater{});
    }
    b.events.clear();
    b.head = 0;
  }
  window_base_ = t;
  cursor_ = t;
  migrate_overflow();
}

}  // namespace saf::sim
