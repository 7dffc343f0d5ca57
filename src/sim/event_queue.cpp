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

EventHandle EventQueue::schedule(SimTime when, Event event) {
  if (when < 0) throw std::invalid_argument("EventQueue: negative time");
  const std::uint32_t slot = acquire_slot();
  const std::uint64_t seq = next_seq_++;
  Record& record = slab_[slot];
  record.event = event;
  record.generation = seq;
  record.live = true;
  heap_.push_back(HeapEntry{when, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), later);
  ++live_;
  return EventHandle(this, slot, seq);
}

void EventQueue::skim() const {
  // Drop cancelled entries from the top and recycle their tombstoned
  // records. An entry is stale exactly when its record was recycled
  // (generation mismatch — impossible here since tombstones hold the slot)
  // or tombstoned (live == false with matching generation).
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const Record& record = slab_[top.slot];
    if (record.generation == top.seq && record.live) break;
    release_slot(top.slot);
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() const {
  skim();
  return heap_.empty() ? kTimeNever : heap_.front().when;
}

Event EventQueue::pop() {
  skim();
  if (heap_.empty()) throw std::logic_error("EventQueue: pop on empty queue");
  const HeapEntry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
  DARE_INVARIANT(live_ > 0,
                 "EventQueue: live count is zero with a live entry queued");
  const Event event = slab_[top.slot].event;
  release_slot(top.slot);
  --live_;
  // The live count can never exceed the heap entries still queued; a
  // mismatch means a cancel/clear path lost track.
  DARE_INVARIANT(live_ <= heap_.size(),
                 "EventQueue: live count exceeds queued entries");
  return event;
}

void EventQueue::clear() {
  std::size_t dropped = 0;
  for (const HeapEntry& entry : heap_) {
    if (slab_[entry.slot].generation == entry.seq && slab_[entry.slot].live) {
      ++dropped;
    }
  }
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
