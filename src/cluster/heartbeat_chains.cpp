#include "cluster/heartbeat_chains.h"

#include <algorithm>
#include <utility>

namespace dare::cluster {

void HeartbeatChains::assign(std::vector<sim::Event> beats) {
  const std::size_t n = beats.size();
  beat_ = std::move(beats);
  pending_.assign(n, sim::EventHandle());
  last_.assign(n, 0);
  due_.assign(n, 0);
  live_.assign(n, false);
  phases_.clear();
  phases_.reserve(n);
}

void HeartbeatChains::start(std::size_t c, SimTime first, bool busy) {
  last_[c] = first - interval_;
  join(c);
  if (busy || shared(c)) schedule(c, first);
}

void HeartbeatChains::restart(std::size_t c) {
  last_[c] = sim_.now();
  join(c);
}

void HeartbeatChains::stop(std::size_t c) {
  if (!live_[c]) return;
  pending_[c].cancel();
  live_[c] = false;
  phases_.erase(std::lower_bound(phases_.begin(), phases_.end(), phase(c)));
}

void HeartbeatChains::rest(std::size_t c, bool busy) {
  if (final_ || scheduled(c)) return;
  if (busy || shared(c)) schedule(c, last_[c] + interval_);
}

void HeartbeatChains::wake(std::size_t c) {
  if (final_ || !live_[c] || scheduled(c)) return;
  schedule(c, next_phase(c));
}

void HeartbeatChains::final_round() {
  if (final_) return;
  for (std::size_t c = 0; c < beat_.size(); ++c) {
    if (sleeping(c)) schedule(c, next_phase(c));
  }
  final_ = true;
  final_at_ = sim_.now();
}

SimTime HeartbeatChains::next_phase(std::size_t c) const {
  const SimTime now = sim_.now();
  const SimTime next = last_[c] + interval_;
  if (next >= now) return next;
  return next + (now - next + interval_ - 1) / interval_ * interval_;
}

void HeartbeatChains::schedule(std::size_t c, SimTime when) {
  due_[c] = when;
  pending_[c] = sim_.at(when, beat_[c], sim::EventClass::kLate);
}

bool HeartbeatChains::shared(std::size_t c) const {
  const auto [lo, hi] =
      std::equal_range(phases_.begin(), phases_.end(), phase(c));
  return hi - lo > 1;
}

void HeartbeatChains::join(std::size_t c) {
  live_[c] = true;
  const SimDuration p = phase(c);
  const auto at = std::upper_bound(phases_.begin(), phases_.end(), p);
  const bool partnered = at != phases_.begin() && *(at - 1) == p;
  phases_.insert(at, p);
  if (!partnered) return;
  // The phase had a chain already: one that sleeps must beat from here
  // on, or a later wake would order it behind `c`.
  for (std::size_t other = 0; other < beat_.size(); ++other) {
    if (other != c && sleeping(other) && phase(other) == p) wake(other);
  }
}

std::string HeartbeatChains::audit() const {
  if (final_) {
    for (std::size_t c = 0; c < beat_.size(); ++c) {
      if (live_[c] && last_[c] < final_at_) {
        return "heartbeat chain " + std::to_string(c) +
               " missed its final beat";
      }
    }
    return "";
  }
  std::vector<SimDuration> counted;
  for (std::size_t c = 0; c < beat_.size(); ++c) {
    if (live_[c]) counted.push_back(phase(c));
  }
  std::sort(counted.begin(), counted.end());
  if (counted != phases_) {
    return "heartbeat chains: the phase list diverges from the live chains";
  }
  for (std::size_t c = 0; c < beat_.size(); ++c) {
    if (!live_[c]) continue;
    if (!scheduled(c) && shared(c)) {
      return "heartbeat chain " + std::to_string(c) +
             " sleeps on a phase it shares";
    }
    if (scheduled(c) && due_[c] != next_phase(c)) {
      return "heartbeat chain " + std::to_string(c) + " is scheduled at " +
             std::to_string(due_[c]) + ", off its next phase point " +
             std::to_string(next_phase(c));
    }
  }
  return "";
}

}  // namespace dare::cluster
