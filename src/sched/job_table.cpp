#include "sched/job_table.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/invariant.h"
#include "sched/locality_index.h"

namespace dare::sched {
namespace {

/// Argmin of pending position over the indexed candidates it is fed: the
/// first match a front-to-back scan of pending_maps would find.
class EarliestPending {
 public:
  explicit EarliestPending(const JobRuntime& rt) : rt_(rt) {}

  void operator()(std::uint32_t mi) {
    const std::size_t pos = rt_.pending_pos[mi];
    DARE_INVARIANT(pos != JobRuntime::kNotPending,
                   "JobTable: locality index lists a non-pending map");
    best_ = std::min(best_, pos);
  }

  std::optional<std::size_t> result() const {
    if (best_ == JobRuntime::kNotPending) return std::nullopt;
    return best_;
  }

 private:
  const JobRuntime& rt_;
  std::size_t best_ = JobRuntime::kNotPending;
};

}  // namespace

void JobTable::attach_locality_index(LocalityIndex* index) {
  if (index == nullptr) {
    throw std::invalid_argument("JobTable: null locality index");
  }
  if (!jobs_.empty()) {
    throw std::logic_error(
        "JobTable: locality index must attach before the first job");
  }
  index_ = index;
}

void JobTable::watch_pending(JobRuntime& rt, std::size_t map_index) {
  index_->watch_map(rt.locality, map_index, rt.spec.maps[map_index].block);
}

void JobTable::unwatch_pending(JobRuntime& rt, std::size_t map_index) {
  index_->unwatch_map(rt.locality, map_index, rt.spec.maps[map_index].block);
}

void JobTable::mark_fair_dirty(JobId id, JobRuntime& rt) {
  if (!rt.fair_dirty) {
    rt.fair_dirty = true;
    fair_dirty_.push_back(id);
  }
}

std::vector<JobId> JobTable::consume_fair_dirty() {
  std::vector<JobId> drained;
  drained.swap(fair_dirty_);
  for (JobId id : drained) {
    // Retiring marks the job dirty one last time (so the scheduler drops
    // its share-set entry); under release-on-retire the runtime may already
    // be gone by the time the journal drains.
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) it->second.fair_dirty = false;
  }
  return drained;
}

void JobTable::set_retire_observer(RetireObserver observer) {
  if (!jobs_.empty()) {
    throw std::logic_error(
        "JobTable: retire observer must install before the first job");
  }
  retire_observer_ = std::move(observer);
}

void JobTable::release_job(JobId id) {
  ++released_jobs_;
  jobs_.erase(id);
}

void JobTable::update_reduce_ready(JobRuntime& rt) {
  const std::pair<std::size_t, JobRuntime*> key{rt.arrival_seq, &rt};
  if (rt.active && rt.maps_done() && rt.pending_reduces > 0) {
    reduce_ready_.insert(key);
  } else {
    reduce_ready_.erase(key);
  }
}

void JobTable::update_map_ready(JobRuntime& rt) {
  const std::pair<std::size_t, JobRuntime*> key{rt.arrival_seq, &rt};
  if (rt.active && !rt.pending_maps.empty()) {
    map_ready_.insert(key);
  } else {
    map_ready_.erase(key);
  }
}

void JobTable::retire_active(JobId id, JobRuntime& rt) {
  DARE_INVARIANT(rt.active, "JobTable: retiring a job that is not active");
  reduce_ready_.erase({rt.arrival_seq, &rt});
  map_ready_.erase({rt.arrival_seq, &rt});
  if (rt.active_prev != nullptr) {
    rt.active_prev->active_next = rt.active_next;
  } else {
    active_head_ = rt.active_next;
  }
  if (rt.active_next != nullptr) {
    rt.active_next->active_prev = rt.active_prev;
  } else {
    active_tail_ = rt.active_prev;
  }
  rt.active = false;
  rt.active_prev = nullptr;
  rt.active_next = nullptr;
  --active_count_;
  mark_fair_dirty(id, rt);
  DARE_INVARIANT(rt.locality.watched.none(),
                 "JobTable: job " + std::to_string(id) +
                     " retired with live candidates");
  // Free the tables now: the runtime may stay resident (no retire
  // observer, or clones still draining), and its maps never pend again.
  rt.locality = LocalityIndex::JobState{};
  if (retire_observer_) {
    retire_observer_(rt);
    // A job can retire while losing clone attempts are still in flight
    // (the winning map completes the job; the clones are killed and drain
    // through finish_clone afterwards). Defer the release until the last
    // clone retires so the fair-share accounting they carry stays valid.
    if (rt.running_clones == 0) release_job(id);
  }
}

void JobTable::add_job(const JobSpec& spec) {
  if (index_ == nullptr) {
    throw std::logic_error("JobTable: add_job before attach_locality_index");
  }
  if (spec.id == kInvalidJob) {
    throw std::invalid_argument("JobTable: job needs a valid id");
  }
  if (jobs_.count(spec.id)) {
    throw std::logic_error("JobTable: duplicate job id");
  }
  if (spec.maps.empty()) {
    throw std::invalid_argument("JobTable: job needs at least one map task");
  }
  JobRuntime rt;
  rt.spec = spec;
  rt.pending_maps.resize(spec.maps.size());
  rt.pending_pos.resize(spec.maps.size());
  for (std::size_t i = 0; i < spec.maps.size(); ++i) {
    rt.pending_maps[i] = i;
    rt.pending_pos[i] = i;
  }
  rt.pending_reduces = spec.reduces;
  rt.arrival_seq = order_.size();
  rt.inv_weight = 1.0 / (spec.weight > 0.0 ? spec.weight : 1.0);
  total_pending_maps_ += rt.pending_maps.size();
  total_pending_reduces_ += rt.pending_reduces;

  // Link at the tail of the active list (arrival order). Links are set
  // after emplace so they point at the map-resident node, which is
  // reference-stable for the job's lifetime.
  rt.active = true;
  auto& stored = jobs_.emplace(spec.id, std::move(rt)).first->second;
  if (jobs_.size() > peak_resident_jobs_) peak_resident_jobs_ = jobs_.size();
  stored.active_prev = active_tail_;
  stored.active_next = nullptr;
  if (active_tail_ != nullptr) {
    active_tail_->active_next = &stored;
  } else {
    active_head_ = &stored;
  }
  active_tail_ = &stored;
  ++active_count_;
  order_.push_back(spec.id);

  mark_fair_dirty(spec.id, stored);
  update_map_ready(stored);
  index_->admit_job(stored.locality, stored.spec.maps);
}

JobRuntime& JobTable::job(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("JobTable: unknown job");
  return it->second;
}

const JobRuntime& JobTable::job(JobId id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("JobTable: unknown job");
  return it->second;
}

bool JobTable::has_job(JobId id) const { return jobs_.count(id) != 0; }

std::optional<std::size_t> JobTable::find_local_map(const JobRuntime& rt,
                                                    NodeId node) const {
  EarliestPending earliest(rt);
  index_->for_each_node_candidate(rt.locality, node, earliest);
  return earliest.result();
}

std::optional<std::size_t> JobTable::find_rack_local_map(const JobRuntime& rt,
                                                         NodeId node) const {
  EarliestPending earliest(rt);
  index_->for_each_rack_candidate(rt.locality, node, earliest);
  return earliest.result();
}

std::size_t JobTable::launch_map(JobId id, std::size_t pending_index,
                                 Locality locality) {
  JobRuntime& rt = job(id);
  if (pending_index >= rt.pending_maps.size()) {
    throw std::out_of_range("JobTable: bad pending map index");
  }
  const std::size_t map_index = rt.pending_maps[pending_index];
  unwatch_pending(rt, map_index);
  // Swap-erase: pending order is not semantically meaningful.
  const std::size_t moved = rt.pending_maps.back();
  rt.pending_maps[pending_index] = moved;
  rt.pending_maps.pop_back();
  rt.pending_pos[moved] = pending_index;
  rt.pending_pos[map_index] = JobRuntime::kNotPending;
  ++rt.running_maps;
  switch (locality) {
    case Locality::kNodeLocal:
      ++rt.local_launches;
      break;
    case Locality::kRackLocal:
      ++rt.rack_local_launches;
      break;
    case Locality::kOffRack:
      ++rt.remote_launches;
      break;
  }
  --total_pending_maps_;
  ++total_running_;
  mark_fair_dirty(id, rt);
  // Launching the last pending map drops the job from the map-ready set.
  if (rt.pending_maps.empty()) update_map_ready(rt);
  return map_index;
}

void JobTable::requeue_running_map(JobId id, std::size_t map_index,
                                   Locality locality) {
  JobRuntime& rt = job(id);
  if (rt.running_maps == 0) {
    throw std::logic_error("JobTable: requeue_running_map with none running");
  }
  if (map_index >= rt.spec.maps.size()) {
    throw std::out_of_range("JobTable: bad map index");
  }
  --rt.running_maps;
  rt.pending_maps.push_back(map_index);
  rt.pending_pos[map_index] = rt.pending_maps.size() - 1;
  switch (locality) {
    case Locality::kNodeLocal:
      --rt.local_launches;
      break;
    case Locality::kRackLocal:
      --rt.rack_local_launches;
      break;
    case Locality::kOffRack:
      --rt.remote_launches;
      break;
  }
  ++total_pending_maps_;
  --total_running_;
  mark_fair_dirty(id, rt);
  // 0 -> 1 pending: the job re-enters the map-ready set.
  if (rt.pending_maps.size() == 1) update_map_ready(rt);
  watch_pending(rt, map_index);
}

void JobTable::launch_clone(JobId id) {
  JobRuntime& rt = job(id);
  ++rt.running_clones;
  // Clones occupy slots, so the fair share they consume must be visible to
  // the scheduler — but they stay out of total_running_ and the map sums
  // (the original attempt carries the task through the accounting).
  mark_fair_dirty(id, rt);
}

void JobTable::finish_clone(JobId id) {
  JobRuntime& rt = job(id);
  if (rt.running_clones == 0) {
    throw std::logic_error("JobTable: finish_clone with none running");
  }
  --rt.running_clones;
  mark_fair_dirty(id, rt);
  // Last clone of an already-retired job: the deferred release (see
  // retire_active) happens now.
  if (retire_observer_ && !rt.active && rt.running_clones == 0) {
    release_job(id);
  }
}

void JobTable::requeue_running_reduce(JobId id) {
  JobRuntime& rt = job(id);
  if (rt.running_reduces == 0) {
    throw std::logic_error(
        "JobTable: requeue_running_reduce with none running");
  }
  --rt.running_reduces;
  ++rt.pending_reduces;
  ++total_pending_reduces_;
  --total_running_;
  // 0 -> 1 pending while maps_done(): the job re-enters the ready set.
  update_reduce_ready(rt);
}

TransitionResult JobTable::complete_map(JobId id, SimTime now) {
  JobRuntime& rt = job(id);
  if (rt.running_maps == 0) {
    throw std::logic_error("JobTable: complete_map with none running");
  }
  --rt.running_maps;
  ++rt.completed_maps;
  --total_running_;
  mark_fair_dirty(id, rt);
  TransitionResult result;
  result.arrival = rt.spec.arrival;
  if (rt.spec.reduces == 0 && rt.done()) {
    rt.completion = now;
    result.job_done = true;
    retire_active(id, rt);  // may destroy rt — no reads past this point
    return result;
  }
  // The last map completing flips maps_done(): the job may become
  // reduce-ready.
  update_reduce_ready(rt);
  result.reduces_ready = rt.maps_done() && rt.pending_reduces > 0;
  return result;
}

void JobTable::launch_reduce(JobId id) {
  JobRuntime& rt = job(id);
  if (!rt.maps_done()) {
    throw std::logic_error("JobTable: reduce before maps finished");
  }
  if (rt.pending_reduces == 0) {
    throw std::logic_error("JobTable: no pending reduces");
  }
  --rt.pending_reduces;
  ++rt.running_reduces;
  --total_pending_reduces_;
  ++total_running_;
  // Launching the last pending reduce drops the job from the ready set.
  update_reduce_ready(rt);
}

TransitionResult JobTable::complete_reduce(JobId id, SimTime now) {
  JobRuntime& rt = job(id);
  if (rt.running_reduces == 0) {
    throw std::logic_error("JobTable: complete_reduce with none running");
  }
  --rt.running_reduces;
  ++rt.completed_reduces;
  --total_running_;
  TransitionResult result;
  result.arrival = rt.spec.arrival;
  if (rt.done()) {
    rt.completion = now;
    result.job_done = true;
    retire_active(id, rt);  // may destroy rt — no reads past this point
  }
  return result;
}

void JobTable::fail_job(JobId id, SimTime now) {
  JobRuntime& rt = job(id);
  if (rt.done()) {
    throw std::logic_error("JobTable: fail_job on a finished job");
  }
  // Drop the job's outstanding work from the global aggregates before
  // zeroing the per-job counters, so pending+running+completed bookkeeping
  // stays consistent for the jobs that remain.
  total_pending_maps_ -= rt.pending_maps.size();
  total_pending_reduces_ -= rt.pending_reduces;
  total_running_ -= rt.running_maps + rt.running_reduces;
  for (std::size_t map_index : rt.pending_maps) {
    unwatch_pending(rt, map_index);
    rt.pending_pos[map_index] = JobRuntime::kNotPending;
  }
  rt.pending_maps.clear();
  rt.running_maps = 0;
  rt.pending_reduces = 0;
  rt.running_reduces = 0;
  rt.failed = true;
  rt.completion = now;
  retire_active(id, rt);
}

}  // namespace dare::sched
