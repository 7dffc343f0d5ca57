#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>

namespace dare::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slab_[slot].next_free;
    return slot;
  }
  if (slab_.size() >= kNoSlot) {
    throw std::length_error("EventQueue: slab exhausted");
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) const {
  Record& record = slab_[slot];
  record.live = false;
  record.next_free = free_head_;
  free_head_ = slot;
}

EventHandle EventQueue::schedule(SimTime when, Event event, EventClass cls) {
  if (when < 0) throw std::invalid_argument("EventQueue: negative time");
  const std::uint32_t slot = acquire_slot();
  const std::uint64_t seq = next_seq_++;
  Record& record = slab_[slot];
  record.event = event;
  record.generation = seq;
  record.live = true;
  ++live_;
  heap_.push_back(Entry{when, seq, slot, cls});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle(this, slot, seq);
}

void EventQueue::skim() const {
  // Drop cancelled entries from the front and recycle their tombstoned
  // records. An entry is dead exactly when its record was recycled
  // (generation mismatch — impossible here since tombstones hold the slot)
  // or tombstoned (live == false with matching generation).
  while (!heap_.empty() && dead(heap_.front())) {
    release_slot(heap_.front().slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() const {
  skim();
  return heap_.empty() ? kTimeNever : heap_.front().when;
}

std::optional<TimedEvent> EventQueue::pop_due(SimTime until) {
  if (live_ == 0) return std::nullopt;
  skim();
  DARE_INVARIANT(!heap_.empty(),
                 "EventQueue: live count is nonzero with nothing queued");
  const Entry top = heap_.front();
  if (top.when > until) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  const Event event = slab_[top.slot].event;
  release_slot(top.slot);
  --live_;
  // The live count can never exceed the entries still queued; a mismatch
  // means a cancel/clear path lost track.
  DARE_INVARIANT(live_ <= heap_.size(),
                 "EventQueue: live count exceeds queued entries");
  return TimedEvent{top.when, event};
}

Event EventQueue::pop() {
  const auto next = pop_due(kTimeNever);
  if (!next) throw std::logic_error("EventQueue: pop on empty queue");
  return next->event;
}

void EventQueue::clear() {
  std::size_t dropped = 0;
  for (const Entry& entry : heap_) dropped += dead(entry) ? 0 : 1;
  DARE_INVARIANT(dropped == live_,
                 "EventQueue: live count disagrees with queued entries");
  // Release the backing storage outright instead of tombstoning: a dead
  // slab would only pin memory, and stale handles stay safe because
  // pending() range-checks the slot against the (now empty) slab.
  heap_.clear();
  heap_.shrink_to_fit();
  slab_.clear();
  slab_.shrink_to_fit();
  free_head_ = kNoSlot;
  live_ = 0;
}

}  // namespace dare::sim
