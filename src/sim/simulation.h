// The discrete-event simulation driver: a clock plus an event queue.
//
// Components hold a reference to the Simulation and use `at`/`after` to
// schedule `Event` records, each in a tie class (EventClass::kLate events
// fire after every kNormal event due at the same time). `run(handler)` drains the queue in timestamp order with one pop per event,
// advancing the clock, and passes each popped record to `handler` — the
// owning component's dispatch. The handler is a template parameter, so
// nothing is type-erased, and the class is header-only. One Simulation
// instance == one independent, single-threaded, fully deterministic
// experiment.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/invariant.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace dare::sim {

class Simulation {
 public:
  Simulation() = default;

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulation time.
  SimTime now() const { return now_; }

  /// Schedule at an absolute time (must be >= now()).
  EventHandle at(SimTime when, Event event,
                 EventClass cls = EventClass::kNormal) {
    if (when < now_) {
      throw std::invalid_argument("Simulation: scheduling in the past");
    }
    return queue_.schedule(when, event, cls);
  }

  /// Schedule after a relative delay (clamped to >= 0).
  EventHandle after(SimDuration delay, Event event,
                    EventClass cls = EventClass::kNormal) {
    return queue_.schedule(now_ + (delay < 0 ? 0 : delay), event, cls);
  }

  /// Run until the queue is empty or `until` is reached (events at exactly
  /// `until` still run), calling `handler(const Event&)` for each event
  /// with now() at the event's timestamp. Returns the number of events
  /// executed.
  template <typename Handler>
  std::uint64_t run(Handler&& handler, SimTime until = kTimeNever) {
    std::uint64_t ran = 0;
    while (fire_next(until, handler)) ++ran;
    // Advance the clock to `until` only if we exhausted events before it;
    // this lets callers resume with a later horizon without time going
    // backwards.
    if (queue_.empty() && until != kTimeNever && until > now_) now_ = until;
    return ran;
  }

  /// Execute exactly one event if present; returns false when idle.
  template <typename Handler>
  bool step(Handler&& handler) {
    return fire_next(kTimeNever, handler);
  }

  /// Abort: drop all pending events. `run` then returns.
  void stop() { queue_.clear(); }

  /// Live events still queued.
  std::size_t pending_events() const { return queue_.size(); }

  /// Total events executed since construction.
  std::uint64_t executed_events() const { return executed_; }

 private:
  /// Pop the earliest live event if it is due at or before `until`, move
  /// the clock to it and hand it to `handler`; false (clock untouched) when
  /// there is none.
  template <typename Handler>
  bool fire_next(SimTime until, Handler& handler) {
    const auto next = queue_.pop_due(until);
    if (!next) return false;
    // `at` rejects scheduling in the past, so the next event can never be
    // earlier than the clock; a violation means the queue or clock is
    // corrupt. Handlers observe now() == their own timestamp.
    DARE_INVARIANT(next->when >= now_,
                   "Simulation: clock would move backwards (event at " +
                       std::to_string(next->when) + ", now " +
                       std::to_string(now_) + ")");
    now_ = next->when;
    handler(next->event);
    ++executed_;
    return true;
  }

  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace dare::sim
