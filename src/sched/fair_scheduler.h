// Fair scheduler with delay scheduling (Zaharia et al., EuroSys'10), as
// shipped in Hadoop's Fair scheduler and used in the paper's evaluation.
//
// Fairness: scheduling opportunities go to the active job with the fewest
// running tasks (equal weights), so small jobs are not starved behind large
// ones. Locality: when the chosen job has no map local to the requesting
// node it is *skipped* rather than launched non-locally; only after a job
// has waited `delay` (wall-clock simulation time since it first declined an
// opportunity) may it launch a non-local map — the "small delay" the paper
// refers to.
//
// Share ordering is maintained incrementally: a std::set keyed by
// (fair_share(), arrival_seq) is patched from the JobTable's fair-share
// journal on each opportunity. It visits jobs in exactly the order of a
// stable_sort of the active jobs with pending maps by fair_share() — the
// seed's per-opportunity collect + sort, which it replaces.
#pragma once

#include <set>
#include <unordered_map>

#include "common/arena.h"
#include "sched/scheduler.h"

namespace dare::sched {

class FairScheduler final : public Scheduler {
 public:
  /// Two-level delay scheduling, as in the original delay-scheduling paper:
  /// a job waits up to `node_delay` for a node-local slot before accepting
  /// a rack-local launch, and a further `rack_delay` before accepting an
  /// off-rack launch. Zero delays behave greedily (never wait). The
  /// single-argument form uses rack_delay = node_delay.
  FairScheduler(SimDuration node_delay, SimDuration rack_delay);
  explicit FairScheduler(SimDuration delay);

  std::optional<MapSelection> select_map(NodeId node, SimTime now,
                                         JobTable& jobs) override;
  std::optional<JobId> select_reduce(JobTable& jobs) override;
  std::string name() const override { return "fair"; }

  SimDuration node_delay() const { return node_delay_; }
  SimDuration rack_delay() const { return rack_delay_; }

 private:
  /// Fair ordering key: smallest weighted share first, arrival order on
  /// ties (arrival_seq is unique, so the comparison is a strict weak order
  /// without consulting the id). Carries the runtime pointer so iterating
  /// the set needs no per-job hash lookup.
  struct ShareKey {
    double share = 0.0;
    std::size_t seq = 0;
    JobId id = kInvalidJob;
    JobRuntime* rt = nullptr;  ///< not part of the ordering
    bool operator<(const ShareKey& other) const {
      if (share != other.share) return share < other.share;
      return seq < other.seq;
    }
  };

  /// Re-key (or drop) one job's share_order_ entry after a journal entry.
  /// One scheduler serves one JobTable.
  void update_share_entry(JobTable& jobs, JobId id);
  /// One job's turn at the opportunity: returns a selection, or nullopt to
  /// move on to the next job in fair order.
  std::optional<MapSelection> try_job(JobRuntime& rt, NodeId node, SimTime now,
                                      JobTable& jobs);

  SimDuration node_delay_;
  SimDuration rack_delay_;

  /// Slab-backed: every fair-share journal entry erases and reinserts one
  /// tree node, so the arena turns the scheduler's steady-state churn into
  /// freelist pops.
  std::set<ShareKey, std::less<ShareKey>, common::SlabAllocator<ShareKey>>
      share_order_;
  std::unordered_map<JobId, ShareKey, std::hash<JobId>, std::equal_to<JobId>,
                     common::SlabAllocator<std::pair<const JobId, ShareKey>>>
      share_keys_;
};

}  // namespace dare::sched
