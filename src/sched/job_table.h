// Runtime state of all submitted jobs: the JobTracker's bookkeeping.
//
// The schedulers (FIFO / Fair) are pure selection strategies over this
// table; launching, completion, and metric accounting mutate it through the
// methods below so invariants (pending + running + completed == total) hold
// by construction.
//
// Locality queries answer from the attached LocalityIndex in O(candidates
// on the node) by taking the argmin of pending position — the element a
// front-to-back scan of pending_maps would find first. The index is
// required: it must be attached before the first add_job.
#pragma once

#include <cstddef>
#include <functional>
#include <iterator>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "sched/job.h"
#include "sched/locality_index.h"

namespace dare::sched {

/// How close a launched map task is to its input data — Hadoop's three
/// locality tiers.
enum class Locality { kNodeLocal, kRackLocal, kOffRack };

/// What a completion transition did to its job — returned by value so
/// callers never have to re-read the JobRuntime after the call (with a
/// retire observer installed, a completed job's runtime may already have
/// been released when the call returns).
struct TransitionResult {
  /// This transition completed the job (its completion time is `now`).
  bool job_done = false;
  /// The job's submission time (always valid, even after release).
  SimTime arrival = kTimeNever;
  /// The job has maps done and reduces waiting to launch.
  bool reduces_ready = false;
};

struct JobRuntime {
  /// pending_pos value for a map task that is not currently pending.
  static constexpr std::size_t kNotPending = static_cast<std::size_t>(-1);

  JobSpec spec;

  /// Indices into spec.maps still waiting to launch.
  std::vector<std::size_t> pending_maps;
  /// Inverse of pending_maps: spec.maps index -> its position in
  /// pending_maps, kNotPending while launched/completed. Lets the locality
  /// index answer "earliest pending candidate" without scanning.
  std::vector<std::size_t> pending_pos;
  std::size_t running_maps = 0;
  std::size_t completed_maps = 0;
  /// Proactive clone attempts currently running for this job. Clones ride
  /// outside the pending/running/completed map accounting (the original
  /// attempt carries the task), but they occupy real slots and therefore
  /// count toward the job's fair share.
  std::size_t running_clones = 0;

  std::size_t pending_reduces = 0;
  std::size_t running_reduces = 0;
  std::size_t completed_reduces = 0;

  SimTime completion = kTimeNever;

  /// Terminal failure: a task attempt exhausted its retry budget and the
  /// whole job was killed (Hadoop semantics). `completion` records the kill
  /// time; the job counts as terminally accounted but not successful.
  bool failed = false;

  /// Locality accounting per tier.
  std::size_t local_launches = 0;       ///< node-local
  std::size_t rack_local_launches = 0;  ///< same rack, different node
  std::size_t remote_launches = 0;      ///< off-rack

  /// Delay-scheduling state (Fair scheduler): when the job first declined a
  /// scheduling opportunity waiting for locality; kTimeNever when it is not
  /// currently waiting. Written only by the FairScheduler serving this
  /// table, which mirrors it in its decline memo.
  SimTime waiting_since = kTimeNever;

  /// Submission index (position in all_jobs()); breaks fair-share ties in
  /// arrival order without re-deriving it from the order vector.
  std::size_t arrival_seq = 0;
  /// Cached 1.0 / max(spec.weight, default): the fair share is computed as
  /// running_maps * inv_weight on every comparison, so the division happens
  /// once per job instead of once per scheduling opportunity.
  double inv_weight = 1.0;

  /// Membership + links of the intrusive active list (see active_jobs()).
  /// Pointers, not ids: iteration must not pay a hash lookup per step
  /// (JobRuntime nodes are reference-stable inside the unordered_map).
  bool active = false;
  JobRuntime* active_prev = nullptr;
  JobRuntime* active_next = nullptr;

  /// Dedup flag for the fair-share change journal.
  bool fair_dirty = false;

  /// Seconds of this job's completed maps, for the speculation estimator's
  /// per-job mean (over completed_maps). The cluster folds each one in just
  /// before complete_map, which may release the runtime.
  double completed_map_s = 0.0;
  /// The Hadoop retry budget (mapreduce.map.maxattempts): failed (not
  /// killed) attempts per map, sized on the job's first map failure, and
  /// of the job's reduces.
  std::vector<std::size_t> map_attempt_failures;
  std::size_t reduce_attempt_failures = 0;

  /// This job's LocalityIndex candidate tables (emptied at retirement).
  /// The find_*_map hot path reads them directly instead of hashing the
  /// JobId per probe.
  LocalityIndex::JobState locality;

  bool maps_done() const {
    return pending_maps.empty() && running_maps == 0;
  }
  /// Weighted fair share consumed by this job's running work (original map
  /// attempts plus proactive clones). With cloning disabled running_clones
  /// is always 0 and the product reduces to running_maps * inv_weight.
  double fair_share() const {
    return static_cast<double>(running_maps + running_clones) * inv_weight;
  }
  bool reduces_done() const {
    return completed_reduces == spec.reduces;
  }
  bool done() const { return failed || (maps_done() && reduces_done()); }
  std::size_t total_maps() const { return spec.maps.size(); }
};

class JobTable;

/// Forward-iterable view of the not-yet-complete jobs in arrival order,
/// backed by an intrusive doubly-linked list threaded through JobRuntime —
/// retirement from the middle is O(1) (the seed erased from a vector), and
/// iteration chases pointers instead of hashing a JobId per step (the
/// schedulers walk this list on every scheduling opportunity, so per-step
/// lookups dominated large-run profiles).
class ActiveJobs {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = JobRuntime;
    using difference_type = std::ptrdiff_t;
    using pointer = JobRuntime*;
    using reference = JobRuntime&;

    iterator() = default;
    explicit iterator(JobRuntime* rt) : rt_(rt) {}

    JobRuntime& operator*() const { return *rt_; }
    JobRuntime* operator->() const { return rt_; }
    iterator& operator++() {
      rt_ = rt_->active_next;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++*this;
      return copy;
    }
    bool operator==(const iterator& other) const { return rt_ == other.rt_; }
    bool operator!=(const iterator& other) const { return rt_ != other.rt_; }

   private:
    JobRuntime* rt_ = nullptr;
  };

  iterator begin() const;
  iterator end() const { return iterator(nullptr); }
  bool empty() const;
  std::size_t size() const;
  /// First (oldest) active job. Requires !empty().
  JobId front() const;

 private:
  friend class JobTable;
  explicit ActiveJobs(const JobTable* table) : table_(table) {}
  const JobTable* table_;
};

class JobTable {
 public:
  JobTable() = default;
  /// Not copyable/movable: the active list is threaded through map-resident
  /// JobRuntime nodes, and schedulers cache the table's address.
  JobTable(const JobTable&) = delete;
  JobTable& operator=(const JobTable&) = delete;

  /// Register an arrived job; its maps become pending, reduces blocked.
  void add_job(const JobSpec& spec);

  JobRuntime& job(JobId id);
  const JobRuntime& job(JobId id) const;
  bool has_job(JobId id) const;

  /// Ids of jobs not yet complete, in arrival (submission) order.
  ActiveJobs active_jobs() const { return ActiveJobs(this); }

  /// Ids of all jobs ever submitted, in arrival order.
  const std::vector<JobId>& all_jobs() const { return order_; }

  /// Attach the inverted locality index: every pending-map transition is
  /// published to it and the find_*_map queries answer from it. Required
  /// before the first add_job (which throws without one); the index must
  /// outlive the table's mutations.
  void attach_locality_index(LocalityIndex* index);
  /// The attached index (null before attach_locality_index).
  const LocalityIndex* locality_index() const { return index_; }

  /// Find a pending map of `rt`'s job whose block is local to `node`.
  /// Returns the smallest matching position in pending_maps (the same
  /// element a front-to-back scan finds first).
  std::optional<std::size_t> find_local_map(const JobRuntime& rt,
                                            NodeId node) const;

  /// Find a pending map of `rt`'s job whose block has a replica in
  /// `node`'s rack (not necessarily on the node itself).
  std::optional<std::size_t> find_rack_local_map(const JobRuntime& rt,
                                                 NodeId node) const;

  /// --- state transitions ------------------------------------------------
  /// Launch pending map `pending_index` (an index into pending_maps, not
  /// into spec.maps). Returns the spec.maps index launched.
  std::size_t launch_map(JobId job, std::size_t pending_index,
                         Locality locality);

  /// A running map failed (its node died): put it back in the pending set
  /// and undo its locality accounting contribution.
  void requeue_running_map(JobId job, std::size_t map_index,
                           Locality locality);

  /// A running reduce failed: back to pending.
  void requeue_running_reduce(JobId job);

  /// A proactive clone attempt launched for `job`: bumps running_clones and
  /// republishes the fair-share key. Clones never touch the pending /
  /// running / completed map sums.
  void launch_clone(JobId job);

  /// A clone attempt retired (won the race, was killed by the winner, swept
  /// by node loss, or its job failed). Throws std::logic_error when no
  /// clone is running — the cluster retires each clone exactly once.
  void finish_clone(JobId job);

  /// A running map finished. Jobs with zero reduces complete when their
  /// last map does. The returned TransitionResult carries everything the
  /// caller needs — do not re-read the runtime after a job_done result when
  /// a retire observer is installed.
  TransitionResult complete_map(JobId job, SimTime now);

  /// Launch one reduce. Requires maps_done() and pending_reduces > 0.
  void launch_reduce(JobId job);

  /// A running reduce finished; when the job completes, record the time and
  /// retire it from the active list. Same re-read caveat as complete_map.
  TransitionResult complete_reduce(JobId job, SimTime now);

  /// Kill a job after a task attempt exhausted its retries: mark it failed,
  /// drop its pending/running work from the aggregates, and retire it from
  /// the active list. The caller is responsible for cancelling the job's
  /// in-flight attempt events. Throws if the job is already done or failed.
  void fail_job(JobId job, SimTime now);

  /// --- reduce-ready set ---------------------------------------------------
  /// Active jobs with maps_done() and pending_reduces > 0, keyed by
  /// arrival_seq so iteration is in arrival order — exactly the subset (and
  /// order) the seed's select_reduce scan visited, without walking jobs
  /// still in their map phase. Maintained incrementally on the transitions
  /// that can change membership.
  using ReduceReadySet =
      std::set<std::pair<std::size_t, JobRuntime*>,
               std::less<std::pair<std::size_t, JobRuntime*>>,
               common::SlabAllocator<std::pair<std::size_t, JobRuntime*>>>;
  const ReduceReadySet& reduce_ready() const { return reduce_ready_; }

  /// --- map-ready set ------------------------------------------------------
  /// Active jobs with pending maps, keyed by arrival_seq. The FIFO scheduler
  /// always launches from the first such job (it never declines), so its
  /// selection reduces to this set's first element — the seed's scan paid
  /// O(active jobs) per opportunity walking the reduce-phase prefix, which
  /// dominated large-run profiles.
  const ReduceReadySet& map_ready() const { return map_ready_; }

  /// --- fair-share change journal -----------------------------------------
  /// Jobs whose fair-share key (running maps, weight) or set membership
  /// (active with pending maps) may have changed since the last drain, each
  /// listed at most once. The FairScheduler drains this instead of
  /// re-sorting every active job per scheduling opportunity.
  std::vector<JobId> consume_fair_dirty();

  /// --- aggregates ---------------------------------------------------------
  std::size_t total_pending_maps() const { return total_pending_maps_; }
  std::size_t total_pending_reduces() const { return total_pending_reduces_; }
  std::size_t total_running() const { return total_running_; }
  bool all_done() const { return active_count_ == 0; }

  /// --- retirement / O(active) residency ----------------------------------
  /// Observer invoked exactly once per job as it retires (completes or
  /// fails), while its runtime is still fully readable. Installing an
  /// observer also switches the table to release-on-retire: once the
  /// observer has run and the job's last clone attempt has finished, the
  /// JobRuntime is destroyed and the table's residency stays O(active jobs)
  /// instead of O(all jobs ever submitted). Callers must then treat the
  /// observer callback as their only chance to copy per-job metrics out.
  using RetireObserver = std::function<void(const JobRuntime&)>;
  void set_retire_observer(RetireObserver observer);

  /// Runtimes currently held (active + retired-but-not-released). Without a
  /// retire observer this equals all_jobs().size().
  std::size_t resident_jobs() const { return jobs_.size(); }
  /// Runtimes released so far under release-on-retire.
  std::size_t released_jobs() const { return released_jobs_; }
  /// High-water mark of resident_jobs(): the quantity the O(active)
  /// residency discipline bounds (streamed runs keep it near the live
  /// backlog, far below the total job count).
  std::size_t peak_resident_jobs() const { return peak_resident_jobs_; }

 private:
  friend class ActiveJobs;

  /// Unlink from the active list (idempotent per job: callers retire at
  /// most once because done() flips exactly once). With a retire observer
  /// installed this may destroy `rt` — callers must not touch it after.
  void retire_active(JobId id, JobRuntime& rt);
  /// Destroy a retired job's runtime (release-on-retire mode only).
  void release_job(JobId id);
  void mark_fair_dirty(JobId id, JobRuntime& rt);
  /// Recompute `rt`'s reduce_ready_ membership after a transition.
  void update_reduce_ready(JobRuntime& rt);
  /// Recompute `rt`'s map_ready_ membership after a pending-set transition.
  void update_map_ready(JobRuntime& rt);
  /// Publish a pending-set entry/exit to the locality index.
  void watch_pending(JobRuntime& rt, std::size_t map_index);
  void unwatch_pending(JobRuntime& rt, std::size_t map_index);

  /// Slab-backed: a released JobRuntime node is recycled by a later arrival
  /// instead of round-tripping through the heap, so under release-on-retire
  /// the steady-state churn of a streamed run allocates nothing.
  std::unordered_map<JobId, JobRuntime, std::hash<JobId>, std::equal_to<JobId>,
                     common::SlabAllocator<std::pair<const JobId, JobRuntime>>>
      jobs_;
  std::vector<JobId> order_;
  JobRuntime* active_head_ = nullptr;
  JobRuntime* active_tail_ = nullptr;
  std::size_t active_count_ = 0;
  LocalityIndex* index_ = nullptr;
  ReduceReadySet reduce_ready_;
  ReduceReadySet map_ready_;
  std::vector<JobId> fair_dirty_;
  std::size_t total_pending_maps_ = 0;
  std::size_t total_pending_reduces_ = 0;
  std::size_t total_running_ = 0;
  RetireObserver retire_observer_;
  std::size_t released_jobs_ = 0;
  std::size_t peak_resident_jobs_ = 0;
};

inline ActiveJobs::iterator ActiveJobs::begin() const {
  return iterator(table_->active_head_);
}

inline bool ActiveJobs::empty() const { return table_->active_count_ == 0; }

inline std::size_t ActiveJobs::size() const { return table_->active_count_; }

inline JobId ActiveJobs::front() const {
  return table_->active_head_->spec.id;
}

}  // namespace dare::sched
