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
//
// Decline memo: when every job declines a node, the node's memo records a
// stamp, and a later offer of that node answers "no" without probing any
// job while the stamp still matches, no job is fresh (its delay clock not
// started: its first decline must still set the clock and trace) and no
// job has waited out both delays (it would accept anywhere). The stamp
// moves on the only events that can turn a decline into an accept:
//  * a node candidate inserted on the node, or a rack candidate in its rack
//    (LocalityIndex::candidate_epoch: new jobs, requeues, new replicas);
//  * a waiting job passing node_delay, which from then on accepts a
//    rack-local map: the racks where it has rack candidates are bumped.
// Candidate removals, completions and share-order changes only ever turn an
// accept into a decline, so they need no invalidation. The full walk stays
// the only path that selects; the memo only ever answers "no".
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

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
  /// The share and wait sets hold iterators into each other.
  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  std::optional<MapSelection> select_map(NodeId node, SimTime now,
                                         JobTable& jobs) override;
  std::optional<JobId> select_reduce(JobTable& jobs) override;
  std::string name() const override { return "fair"; }

  SimDuration node_delay() const { return node_delay_; }
  SimDuration rack_delay() const { return rack_delay_; }

  /// The order in which the next offer would probe jobs (introspection for
  /// tests; drains the fair-share journal like an offer does).
  std::vector<JobId> offer_order(JobTable& jobs);

 private:
  /// A job whose delay clock runs. Ordered by clock start, so the first
  /// entry is the longest waiter; `serial` (insertion order) breaks ties.
  struct Wait {
    SimTime since = kTimeNever;
    std::uint64_t serial = 0;
    JobRuntime* rt = nullptr;  ///< not part of the ordering
    bool operator<(const Wait& other) const {
      if (since != other.since) return since < other.since;
      return serial < other.serial;
    }
  };
  using WaitSet = std::set<Wait, std::less<Wait>, common::SlabAllocator<Wait>>;

  /// Fair ordering key: smallest weighted share first, arrival order on
  /// ties (arrival_seq is unique, so the comparison is a strict weak order
  /// without consulting the id). Carries the runtime pointer so iterating
  /// the set needs no per-job hash lookup.
  struct ShareKey {
    double share = 0.0;
    std::size_t seq = 0;
    JobId id = kInvalidJob;
    JobRuntime* rt = nullptr;  ///< not part of the ordering
    /// The job's entry in waiting_, or waiting_.end() while it is fresh;
    /// not part of the ordering.
    mutable WaitSet::iterator wait;
    bool operator<(const ShareKey& other) const {
      if (share != other.share) return share < other.share;
      return seq < other.seq;
    }
  };
  using ShareSet =
      std::set<ShareKey, std::less<ShareKey>, common::SlabAllocator<ShareKey>>;

  static constexpr std::uint64_t kNoMemo = ~std::uint64_t{0};

  /// Patch the share order from the fair-share journal (binding the
  /// table's index at the first call); false while the table has no index.
  bool drain_journal(JobTable& jobs);
  /// Re-key (or drop) one job's share_order_ entry after a journal entry.
  /// One scheduler serves one JobTable.
  void update_share_entry(JobTable& jobs, JobId id);
  /// One job's turn at the opportunity: returns a selection, or nullopt to
  /// move on to the next job in fair order.
  std::optional<MapSelection> try_job(const ShareKey& key, NodeId node,
                                      SimTime now, JobTable& jobs);
  /// The job accepted: stop its delay clock.
  void stop_clock(const ShareKey& key);
  /// Start tracking `rt`'s running delay clock.
  WaitSet::iterator add_wait(JobRuntime& rt);
  void erase_wait(WaitSet::iterator it);
  /// Bump the delay epoch of every rack where `rt` has a rack candidate.
  void invalidate_racks(const JobRuntime& rt);
  /// Process every wait that has passed node_delay by `now`.
  void pass_node_delay(SimTime now);
  /// The memo stamp of `node`: moves whenever an offer of it may accept.
  std::uint64_t memo_stamp(NodeId node) const {
    return index_->candidate_epoch(node) +
           delay_epoch_[static_cast<std::size_t>(index_->rack_of(node))];
  }

  SimDuration node_delay_;
  SimDuration rack_delay_;

  /// Slab-backed: every fair-share journal entry erases and reinserts one
  /// tree node, so the arena turns the scheduler's steady-state churn into
  /// freelist pops.
  ShareSet share_order_;
  std::unordered_map<JobId, ShareSet::iterator, std::hash<JobId>,
                     std::equal_to<JobId>,
                     common::SlabAllocator<
                         std::pair<const JobId, ShareSet::iterator>>>
      share_keys_;

  /// Every job in share_order_ whose delay clock runs, so a job is fresh
  /// iff it has no entry here.
  WaitSet waiting_;
  /// First wait whose node_delay crossing is not processed yet.
  WaitSet::iterator unpassed_ = waiting_.end();
  std::uint64_t next_serial_ = 0;

  /// The served table's index (set at the first offer).
  const LocalityIndex* index_ = nullptr;
  /// Per node: memo_stamp() at its last all-decline walk, or kNoMemo.
  std::vector<std::uint64_t> memo_;
  /// Per rack: node_delay crossings of jobs with a rack candidate there.
  std::vector<std::uint64_t> delay_epoch_;
};

}  // namespace dare::sched
