// Periodic late-class chains (the data nodes' heartbeats and the detection
// monitor) that sleep while they have nothing to carry.
//
// A chain beats on its phase points: its latest beat plus whole intervals.
// Before the first beat that is the staggered start, after a rejoin the
// re-registration beat. Every beat is a sim::EventClass::kLate event, so at
// one time it fires after every normal event. A heartbeat with no report to
// deliver, no marked replica to reclaim and no straggler verdict to weigh
// changes nothing but the master's freshness stamp, and that stamp is a
// function of the phase alone. Such a chain is not scheduled: it sleeps,
// and a wake schedules its first phase point at or after now, which is
// where the beat would have fired anyway.
//
// Exactness rests on one rule: a chain may sleep only while no other live
// chain shares its phase. Two chains on one phase fire in scheduling order,
// and a sleeper woken later would be scheduled behind its partner and swap
// that order; so a chain that gains a partner is woken, and a woken beat
// never ties with another late event. The monitor is a chain that never
// sleeps (the owner keeps calling it busy).
//
// The owner decides what counts as work: it calls rest() after each beat
// and wake() on a node's idle -> busy transition. Waking too often is
// always exact (an idle beat changes no result); missing a wake is not,
// which is what audit() and the owner's check of busy nodes guard.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "sim/simulation.h"

namespace dare::cluster {

class HeartbeatChains {
 public:
  HeartbeatChains(sim::Simulation& sim, SimDuration interval)
      : sim_(sim), interval_(interval) {}

  /// One chain per event, none live yet: chain `c`'s beats fire
  /// `beats[c]`. Replaces any earlier chains.
  void assign(std::vector<sim::Event> beats);

  /// Chain `c` goes live with its first beat at `first` (>= now):
  /// scheduled if `busy` or its phase is shared, asleep otherwise.
  void start(std::size_t c, SimTime first, bool busy);
  /// Chain `c` goes live with a beat now that its owner runs out of band
  /// (a rejoin's re-registration beat), then calls rest(). Its phase moves
  /// to now.
  void restart(std::size_t c);
  /// Chain `c` leaves (its node died, or the monitor ended): its pending
  /// beat is cancelled and it shares no phase any more.
  void stop(std::size_t c);

  /// Chain `c`'s beat fires now. Call before anything the beat does, so a
  /// wake from inside it schedules the next phase point, not this one.
  void fired(std::size_t c) { last_[c] = sim_.now(); }
  /// After a beat of `c`: schedule the next phase point if `busy` or the
  /// phase is shared, else sleep. No-op once scheduled or after the final
  /// round began.
  void rest(std::size_t c, bool busy);
  /// Schedule `c`'s first phase point at or after now (past its last
  /// beat). No-op when `c` is scheduled or not live, or after the final
  /// round began.
  void wake(std::size_t c);
  /// Every live chain beats once more, at its first phase point at or after
  /// now, and none re-arms after that. Idempotent.
  void final_round();
  bool final() const { return final_; }
  std::size_t size() const { return beat_.size(); }

  bool scheduled(std::size_t c) const { return pending_[c].pending(); }
  /// Latest phase point of `c` at or before `t` that is not its pending
  /// beat: the chain's last beat, or a later one it skipped asleep.
  SimTime latest_phase(std::size_t c, SimTime t) const {
    if (scheduled(c) && t >= due_[c]) t = due_[c] - 1;
    const SimTime p = last_[c] + (t - last_[c]) / interval_ * interval_;
    return p > t ? p - interval_ : p;
  }

  /// The first broken rule, or "" when none is: before the final round, a
  /// sleeping chain shares its phase with another live chain, a scheduled
  /// beat is off the chain's first phase point at or after now, or the
  /// per-phase counts disagree with the live chains; from the final round
  /// on, a live chain has not beaten since it began.
  std::string audit() const;

 private:
  bool sleeping(std::size_t c) const { return live_[c] && !scheduled(c); }
  /// Time mod interval of `c`'s phase points (last_ may be negative).
  SimDuration phase(std::size_t c) const {
    return (last_[c] % interval_ + interval_) % interval_;
  }
  /// First phase point of `c` at or after now and after its last beat.
  SimTime next_phase(std::size_t c) const;
  void schedule(std::size_t c, SimTime when);
  /// Count `c` on its phase and wake a sleeping chain it now shares with.
  void join(std::size_t c);
  /// Another live chain shares `c`'s phase.
  bool shared(std::size_t c) const;

  sim::Simulation& sim_;
  SimDuration interval_;
  std::vector<sim::Event> beat_;
  std::vector<sim::EventHandle> pending_;
  /// Latest beat; before the first one, the first beat minus one interval.
  std::vector<SimTime> last_;
  /// Time of the pending beat (meaningful while scheduled).
  std::vector<SimTime> due_;
  std::vector<bool> live_;
  /// The live chains' phases (time mod interval), sorted, one entry per
  /// chain. Staggered starts arrive in increasing order, so filling it is
  /// a run of appends; a rejoin inserts one entry.
  std::vector<SimDuration> phases_;
  bool final_ = false;
  SimTime final_at_ = 0;
};

}  // namespace dare::cluster
