#include "sched/fair_scheduler.h"

#include <stdexcept>

#include "common/invariant.h"
#include "obs/trace_collector.h"

namespace dare::sched {

FairScheduler::FairScheduler(SimDuration node_delay, SimDuration rack_delay)
    : node_delay_(node_delay), rack_delay_(rack_delay) {
  if (node_delay < 0 || rack_delay < 0) {
    throw std::invalid_argument("FairScheduler: delays must be >= 0");
  }
}

FairScheduler::FairScheduler(SimDuration delay)
    : FairScheduler(delay, delay) {}

void FairScheduler::update_share_entry(JobTable& jobs, JobId id) {
  const auto old = share_keys_.find(id);
  if (old != share_keys_.end()) {
    share_order_.erase(old->second);
    share_keys_.erase(old);
  }
  if (!jobs.has_job(id)) return;
  JobRuntime& rt = jobs.job(id);
  if (!rt.active || rt.pending_maps.empty()) return;
  const ShareKey key{rt.fair_share(), rt.arrival_seq, id, &rt};
  share_order_.insert(key);
  share_keys_.emplace(id, key);
}

std::optional<MapSelection> FairScheduler::try_job(JobRuntime& rt, NodeId node,
                                                   SimTime now,
                                                   JobTable& jobs) {
  const JobId id = rt.spec.id;
  if (const auto local = jobs.find_local_map(rt, node)) {
    if (tracer_ != nullptr) {
      const double waited_s =
          rt.waiting_since == kTimeNever
              ? 0.0
              : to_seconds(now - rt.waiting_since);
      tracer_->scheduler_decision(
          node, id, static_cast<int>(Locality::kNodeLocal), waited_s);
    }
    rt.waiting_since = kTimeNever;
    return MapSelection{id, *local, Locality::kNodeLocal};
  }
  if (rt.waiting_since == kTimeNever) {
    // First declined opportunity: start the delay clock.
    rt.waiting_since = now;
    if (node_delay_ > 0) {
      if (tracer_ != nullptr) tracer_->delay_wait(node, id);
      return std::nullopt;
    }
  }
  const SimDuration waited = now - rt.waiting_since;
  if (waited >= node_delay_) {
    // Level-1 delay expired: a rack-local launch is acceptable.
    if (const auto rack = jobs.find_rack_local_map(rt, node)) {
      if (tracer_ != nullptr) {
        tracer_->scheduler_decision(node, id,
                                    static_cast<int>(Locality::kRackLocal),
                                    to_seconds(waited));
      }
      rt.waiting_since = kTimeNever;
      return MapSelection{id, *rack, Locality::kRackLocal};
    }
    if (waited >= node_delay_ + rack_delay_) {
      // Level-2 delay expired too: launch anywhere rather than starve.
      if (tracer_ != nullptr) {
        tracer_->scheduler_decision(node, id,
                                    static_cast<int>(Locality::kOffRack),
                                    to_seconds(waited));
      }
      rt.waiting_since = kTimeNever;
      return MapSelection{id, 0, Locality::kOffRack};
    }
  }
  // Still within a delay window: skip this job, try the next.
  return std::nullopt;
}

std::optional<MapSelection> FairScheduler::select_map(NodeId node, SimTime now,
                                                      JobTable& jobs) {
  // Patch the share order from the fair-share journal (add_job journals
  // every job, so the first drain sees them all).
  for (JobId id : jobs.consume_fair_dirty()) update_share_entry(jobs, id);
  // The loop body only touches waiting_since, never a share component, so
  // iterating the set while probing jobs is safe; a returned selection is
  // followed by a launch whose journal entry is drained next call.
  for (const ShareKey& key : share_order_) {
    if (auto picked = try_job(*key.rt, node, now, jobs)) return picked;
  }
  return std::nullopt;
}

std::optional<JobId> FairScheduler::select_reduce(JobTable& jobs) {
  // Fewest running reduces first among jobs with launchable reduces (the
  // ready set, iterated in arrival order); the strict `<` keeps the
  // earliest arrival among ties.
  const JobRuntime* best = nullptr;
  for (const auto& [seq, rt] : jobs.reduce_ready()) {
    if (best == nullptr || rt->running_reduces < best->running_reduces) {
      best = rt;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->spec.id;
}

}  // namespace dare::sched
