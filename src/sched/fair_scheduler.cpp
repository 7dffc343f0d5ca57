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

bool FairScheduler::drain_journal(JobTable& jobs) {
  if (index_ == nullptr) {
    // No index means no job was ever added: nothing to offer.
    index_ = jobs.locality_index();
    if (index_ == nullptr) return false;
    memo_.assign(index_->num_nodes(), kNoMemo);
    delay_epoch_.assign(index_->num_racks(), 0);
  }
  // add_job journals every job, so the first drain sees them all.
  for (JobId id : jobs.consume_fair_dirty()) update_share_entry(jobs, id);
  return true;
}

void FairScheduler::update_share_entry(JobTable& jobs, JobId id) {
  WaitSet::iterator wait = waiting_.end();
  if (const auto old = share_keys_.find(id); old != share_keys_.end()) {
    wait = old->second->wait;
    share_order_.erase(old->second);
    share_keys_.erase(old);
  }
  JobRuntime* rt = jobs.has_job(id) ? &jobs.job(id) : nullptr;
  if (rt == nullptr || !rt->active || rt->pending_maps.empty()) {
    if (wait != waiting_.end()) erase_wait(wait);
    return;
  }
  // A job that re-enters with its clock running: its pending set was
  // emptied by launches no selection made (tests drive the table
  // directly), so no accept stopped the clock.
  if (wait == waiting_.end() && rt->waiting_since != kTimeNever) {
    wait = add_wait(*rt);
  }
  const auto it = share_order_
                      .insert(ShareKey{rt->fair_share(), rt->arrival_seq, id,
                                       rt, wait})
                      .first;
  share_keys_.emplace(id, it);
}

FairScheduler::WaitSet::iterator FairScheduler::add_wait(JobRuntime& rt) {
  const auto it = waiting_.insert(Wait{rt.waiting_since, next_serial_++, &rt})
                      .first;
  if (unpassed_ == waiting_.end() ? std::next(it) != waiting_.end()
                                  : *it < *unpassed_) {
    // Placed among processed waits, which all started no earlier and have
    // passed node_delay: so has this one.
    invalidate_racks(rt);
  } else if (unpassed_ == waiting_.end()) {
    unpassed_ = it;
  }
  return it;
}

void FairScheduler::erase_wait(WaitSet::iterator it) {
  if (it == unpassed_) ++unpassed_;
  waiting_.erase(it);
}

void FairScheduler::stop_clock(const ShareKey& key) {
  if (key.wait != waiting_.end()) {
    erase_wait(key.wait);
    key.wait = waiting_.end();
  }
  key.rt->waiting_since = kTimeNever;
}

void FairScheduler::invalidate_racks(const JobRuntime& rt) {
  index_->for_each_candidate_rack(rt.locality, [&](RackId rack) {
    ++delay_epoch_[static_cast<std::size_t>(rack)];
  });
}

void FairScheduler::pass_node_delay(SimTime now) {
  for (; unpassed_ != waiting_.end() && now - unpassed_->since >= node_delay_;
       ++unpassed_) {
    invalidate_racks(*unpassed_->rt);
  }
}

std::optional<MapSelection> FairScheduler::try_job(const ShareKey& key,
                                                   NodeId node, SimTime now,
                                                   JobTable& jobs) {
  JobRuntime& rt = *key.rt;
  const JobId id = key.id;
  ++work_.job_probes;
  if (const auto local = jobs.find_local_map(rt, node)) {
    if (tracer_ != nullptr) {
      const double waited_s =
          rt.waiting_since == kTimeNever
              ? 0.0
              : to_seconds(now - rt.waiting_since);
      tracer_->scheduler_decision(
          node, id, static_cast<int>(Locality::kNodeLocal), waited_s);
    }
    stop_clock(key);
    return MapSelection{id, *local, Locality::kNodeLocal};
  }
  if (rt.waiting_since == kTimeNever) {
    // First declined opportunity: start the delay clock.
    rt.waiting_since = now;
    key.wait = add_wait(rt);
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
      stop_clock(key);
      return MapSelection{id, *rack, Locality::kRackLocal};
    }
    if (waited >= node_delay_ + rack_delay_) {
      // Level-2 delay expired too: launch anywhere rather than starve.
      if (tracer_ != nullptr) {
        tracer_->scheduler_decision(node, id,
                                    static_cast<int>(Locality::kOffRack),
                                    to_seconds(waited));
      }
      stop_clock(key);
      return MapSelection{id, 0, Locality::kOffRack};
    }
  }
  // Still within a delay window: skip this job, try the next.
  return std::nullopt;
}

std::optional<MapSelection> FairScheduler::select_map(NodeId node, SimTime now,
                                                      JobTable& jobs) {
  if (!drain_journal(jobs) || share_order_.empty()) return std::nullopt;
  pass_node_delay(now);
  // The memo answers only while no job is fresh (every job in the share
  // order has a wait entry) and the longest waiter cannot go off-rack yet.
  const auto n = static_cast<std::size_t>(node);
  const std::uint64_t stamp = memo_stamp(node);
  if (memo_[n] == stamp && waiting_.size() == share_order_.size() &&
      now - waiting_.begin()->since < node_delay_ + rack_delay_) {
    ++work_.memo_answers;
    return std::nullopt;
  }
  // The loop body only touches waiting_since and the wait set, never a
  // share component, so iterating the set while probing jobs is safe; a
  // returned selection is followed by a launch whose journal entry is
  // drained next call.
  for (const ShareKey& key : share_order_) {
    if (auto picked = try_job(key, node, now, jobs)) {
      memo_[n] = kNoMemo;
      return picked;
    }
  }
  memo_[n] = stamp;
  return std::nullopt;
}

std::vector<JobId> FairScheduler::offer_order(JobTable& jobs) {
  drain_journal(jobs);
  std::vector<JobId> order;
  order.reserve(share_order_.size());
  for (const ShareKey& key : share_order_) order.push_back(key.id);
  return order;
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
