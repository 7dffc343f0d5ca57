// Stable priority queue of timed event records for the discrete-event engine.
//
// Events fire in (when, class, seq) order: by time; at equal times every
// EventClass::kNormal event before any EventClass::kLate one; within a class
// in insertion order (a strict sequence number breaks ties). That keeps
// heartbeat/scheduling interleavings deterministic. Events can be cancelled
// in O(1) (lazily: the slab record is tombstoned and its queued entry skipped
// and reclaimed at pop time).
//
// Storage layout (the event-engine inner loop of every simulation):
//  * a slab of 32-byte records recycled through an intrusive freelist — the
//    event plus a generation counter live here, and a record is reused as
//    soon as its queued entry has been drained;
//  * one binary heap of 24-byte POD entries {when, seq, slot, class}, the
//    class in the padding after the slot.
// Scheduling therefore performs zero heap allocations in steady state.
//
// Handles are {queue, slot, generation} triples: the generation (the
// event's global sequence number) distinguishes the handle's event from any
// later occupant of the recycled slot, so stale handles report !pending()
// and refuse to cancel. Handles must not outlive their queue.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/invariant.h"
#include "common/types.h"

namespace dare::sim {

/// A scheduled event is data, not code: what happens (`kind`, a value of the
/// scheduling component's own event enum) and to what (`node`, a worker or
/// rack id; `id`, one further operand such as a task key, an epoch or a
/// table index). The queue never interprets it; Simulation::run hands each
/// popped record to its owner.
struct Event {
  std::uint32_t kind = 0;
  std::int32_t node = 0;
  std::uint64_t id = 0;
};
static_assert(sizeof(Event) == 16, "sim::Event must stay a 16-byte record");

/// Tie class of a scheduled event: at one timestamp every kNormal event fires
/// before any kLate one, whenever each was scheduled. Within a class,
/// scheduling order decides.
enum class EventClass : std::uint8_t { kNormal = 0, kLate = 1 };

/// A popped event with the time it was scheduled for.
struct TimedEvent {
  SimTime when = 0;
  Event event;
};

class EventQueue;

/// Opaque handle used to cancel a scheduled event.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event has neither fired nor been cancelled.
  bool pending() const;

  /// Cancel the event; returns true if it was still pending.
  bool cancel();

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint64_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `event` at absolute time `when` in tie class `cls`. Requires
  /// when >= 0.
  EventHandle schedule(SimTime when, Event event,
                       EventClass cls = EventClass::kNormal);

  /// True when no live (uncancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live events.
  std::size_t size() const { return live_; }

  /// Timestamp of the earliest live event; kTimeNever when empty.
  SimTime next_time() const;

  /// Remove and return the earliest live event if it is due at or before
  /// `until`; nullopt (nothing removed but cancelled entries) otherwise.
  std::optional<TimedEvent> pop_due(SimTime until);

  /// Remove and return the earliest live event (the one at next_time()).
  /// Requires !empty().
  Event pop();

  /// Drop everything (used when a simulation ends early). Outstanding
  /// handles become non-pending; the slab and heap release their memory.
  void clear();

  /// Slab records currently allocated (live + tombstoned awaiting drain).
  /// Introspection for the memory-stability regression tests: with prompt
  /// skimming this stays bounded by the peak live count, proving cancelled
  /// events do not leak records.
  std::size_t slab_size() const { return slab_.size(); }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Record {
    Event event;
    /// Sequence number of the occupying event; a mismatch against a handle
    /// or queued entry means the slot was recycled since.
    std::uint64_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    /// Scheduled and neither fired nor cancelled. A dead record whose entry
    /// is still queued is a tombstone: it is reclaimed (returned to the
    /// freelist) when the entry reaches the front of its container.
    bool live = false;
  };
  static_assert(sizeof(Record) <= 32, "EventQueue record grew past 32 bytes");

  /// A queued event.
  struct Entry {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    EventClass cls = EventClass::kNormal;
  };
  static_assert(sizeof(Entry) == 24, "EventQueue entry grew past 24 bytes");

  /// Min-heap order on (when, class, seq) via std::push_heap/pop_heap with
  /// std::greater semantics expressed directly. A function object rather
  /// than a function pointer, so the heap algorithms inline the compare.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      if (a.cls != b.cls) return a.cls > b.cls;
      return a.seq > b.seq;
    }
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) const;
  /// The entry's event was cancelled (or its record recycled).
  bool dead(const Entry& entry) const {
    const Record& record = slab_[entry.slot];
    return record.generation != entry.seq || !record.live;
  }
  /// Remove drained (cancelled) entries from the front of the heap and
  /// reclaim their tombstoned records.
  void skim() const;

  // skim() is logically const (it only reclaims dead storage), so the
  // containers are mutable.
  mutable std::vector<Record> slab_;
  mutable std::vector<Entry> heap_;
  mutable std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

inline bool EventHandle::pending() const {
  if (queue_ == nullptr || slot_ >= queue_->slab_.size()) return false;
  const EventQueue::Record& record = queue_->slab_[slot_];
  return record.generation == generation_ && record.live;
}

inline bool EventHandle::cancel() {
  if (!pending()) return false;
  queue_->slab_[slot_].live = false;
  DARE_INVARIANT(queue_->live_ > 0,
                 "EventHandle: cancel would underflow the live count");
  --queue_->live_;
  return true;
}

}  // namespace dare::sim
