// Inverted locality index: replica location -> pending map tasks.
//
// The JobTracker's hottest question is "does job J have a pending map whose
// input block has a replica on node N (or in N's rack)?". The seed answered
// it by scanning every pending map of the job against the name node's block
// map — O(pending maps) per job per scheduling opportunity, and the DARE
// policies make the question *more* frequent by creating replicas that turn
// misses into hits. This index inverts the relationship and maintains it
// incrementally:
//
//   by_node[job] holds (node, map) for each pending map of `job` whose
//                block has a visible replica on `node`
//   by_rack[job] holds (rack, map) for each pending map whose block has
//                >= 1 visible replica anywhere in `rack`
//
// Two event streams keep it current:
//  * replica deltas from the NameNode (static placement at file create,
//    dynamic DARE replicas appearing/evicting via heartbeat, node death
//    dropping every replica on the node, rejoin re-adoption, repair copies);
//  * watch/unwatch calls from the JobTable as maps enter and leave the
//    pending set (job arrival, launch, failure requeue, job kill).
//
// Equivalence with the linear scan: the scan returns the *first* pending
// position whose block matches, so JobTable answers queries by taking the
// argmin of pending-position over the candidate set (see
// JobRuntime::pending_pos). The order in which a query visits candidates
// therefore never affects results, which keeps the structure deterministic
// even though replica deltas can arrive in unordered-map order from
// NameNode::node_failed.
//
// Cost per pending map is linear in its block's replica count R: watch and
// unwatch touch one node entry per replica and one rack entry per distinct
// rack, found in one pass with a rack-sized stamp array. DARE's adoptions
// push R into the hundreds for hot blocks, so nothing here may be O(R^2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/types.h"

namespace dare::sched {

/// One job's candidate table: a multiset of (key, map index) pairs, where
/// the key is a node id (by_node) or a rack id (by_rack).
///
/// The whole table is one flat open-addressing array of 8-byte entries with
/// linear probing, so every entry of a key lies on that key's probe chain
/// (home slot to the next empty slot). A query walks the chain and reports
/// each matching map index; erase pulls later chain entries back into the
/// hole (backward shift), so the table needs no tombstones. The array grows
/// by doubling and is never allocated per key: under DARE a hot block sits
/// on dozens of nodes, so one job's candidates span hundreds of keys, and a
/// list per key would cost a heap allocation and a vector header for each.
/// Keys are Fibonacci-hashed: node and rack ids are dense small integers,
/// and an identity hash would pile every key's run into the low slots.
class CandidateMap {
 public:
  /// Calls fn(map_index) for every entry under `key`, in no fixed order.
  template <typename Fn>
  void for_each(std::uint32_t key, Fn&& fn) const {
    if (size_ == 0) return;
    const std::size_t mask = entries_.size() - 1;
    for (std::size_t i = home(key); entries_[i].key != kEmptyKey;
         i = (i + 1) & mask) {
      if (entries_[i].key == key) fn(entries_[i].map_index);
    }
  }

  /// Calls fn(key) for every entry, in no fixed order (a key repeats once
  /// per entry under it).
  template <typename Fn>
  void for_each_key(Fn&& fn) const {
    if (size_ == 0) return;
    for (const Entry& e : entries_) {
      if (e.key != kEmptyKey) fn(e.key);
    }
  }

  /// Adds one (key, map_index) entry. `key` must differ from kEmptyKey.
  void insert(std::uint32_t key, std::uint32_t map_index) {
    if ((size_ + 1) * 2 > entries_.size()) grow();
    place(Entry{key, map_index});
    ++size_;
  }

  /// Removes one (key, map_index) entry. Returns false, leaving the table
  /// unchanged, when no such entry exists.
  bool erase(std::uint32_t key, std::uint32_t map_index);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return entries_.size(); }
  /// Slot where `key`'s probe chain starts; requires capacity() > 0.
  std::size_t home(std::uint32_t key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  static constexpr std::uint32_t kEmptyKey = 0xFFFFFFFFu;

 private:
  struct Entry {
    std::uint32_t key = kEmptyKey;
    std::uint32_t map_index = 0;
  };

  /// Stores `e` in the first empty slot of its chain (capacity is ensured).
  void place(Entry e) {
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = home(e.key);
    while (entries_[i].key != kEmptyKey) i = (i + 1) & mask;
    entries_[i] = e;
  }
  void grow();

  std::vector<Entry> entries_;  // power-of-two size, at most half full
  std::size_t size_ = 0;
  unsigned shift_ = 0;  // 64 - log2(entries_.size())
};

class LocalityIndex {
 public:
  /// Per-job candidate tables. Nodes live inside an unordered_map, so their
  /// addresses are stable for the job's lifetime; the JobTable caches a
  /// pointer in JobRuntime and queries through it without any hash lookup.
  struct JobState {
    /// (node, pending map index) per replica of the map's block.
    CandidateMap by_node;
    /// (rack, pending map index) per rack holding >= 1 of those replicas.
    CandidateMap by_rack;
  };

  /// `node_rack[n]` is the rack of node n; `num_racks` bounds its values.
  LocalityIndex(std::size_t num_nodes, std::vector<RackId> node_rack,
                std::size_t num_racks);

  /// --- replica deltas (NameNode observer) --------------------------------
  /// A visible replica of `block` appeared / disappeared on `node`. Must
  /// mirror the name node's location map exactly: one call per actual
  /// mutation, never a repeat.
  void replica_added(BlockId block, NodeId node);
  void replica_removed(BlockId block, NodeId node);

  /// --- pending-map lifecycle (JobTable) ----------------------------------
  /// Map `map_index` of `job` (reading `block`) entered the pending set.
  void watch_map(JobId job, std::size_t map_index, BlockId block);
  /// ... left the pending set (launched, or dropped by a job kill).
  void unwatch_map(JobId job, std::size_t map_index, BlockId block);
  /// The job left the active list with no pending maps; frees its state.
  void job_retired(JobId job);

  /// --- queries ------------------------------------------------------------
  /// Hash-free queries over a cached JobState (the scheduling hot path: the
  /// Fair scheduler probes every active job per slot offer, so a map lookup
  /// per probe showed up in large-run profiles). Call fn(map_index) for each
  /// pending map of the job whose block is on `node` / in `node`'s rack.
  template <typename Fn>
  void for_each_node_candidate(const JobState& state, NodeId node,
                               Fn&& fn) const {
    state.by_node.for_each(static_cast<std::uint32_t>(node), fn);
  }
  template <typename Fn>
  void for_each_rack_candidate(const JobState& state, NodeId node,
                               Fn&& fn) const {
    state.by_rack.for_each(
        static_cast<std::uint32_t>(node_rack_[static_cast<std::size_t>(node)]),
        fn);
  }

  /// Calls fn(rack) for each rack in which the job has a rack candidate (a
  /// rack may repeat).
  template <typename Fn>
  void for_each_candidate_rack(const JobState& state, Fn&& fn) const {
    state.by_rack.for_each_key(
        [&](std::uint32_t rack) { fn(static_cast<RackId>(rack)); });
  }

  /// --- candidate epochs ---------------------------------------------------
  /// Bumped by every insert into any job's by_node table under `node`, or
  /// into any by_rack table under `node`'s rack: a job whose offer of
  /// `node` was declined can only gain a candidate there while this value
  /// moves (FairScheduler's decline memo reads it). Removals never bump it.
  std::uint64_t candidate_epoch(NodeId node) const {
    const auto n = static_cast<std::size_t>(node);
    return node_epoch_[n] +
           rack_epoch_[static_cast<std::size_t>(node_rack_[n])];
  }
  RackId rack_of(NodeId node) const {
    return node_rack_[static_cast<std::size_t>(node)];
  }
  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_racks() const { return num_racks_; }

  /// Create-or-get the job's candidate state. The returned pointer is
  /// stable until job_retired(job).
  JobState* job_state_ptr(JobId job) { return &jobs_[job]; }

  /// --- introspection (tests / validate) -----------------------------------
  /// Sorted pending map indices of `job` whose block is on `node` / in
  /// `node`'s rack; empty for unknown jobs.
  std::vector<std::uint32_t> node_candidates(JobId job, NodeId node) const;
  std::vector<std::uint32_t> rack_candidates(JobId job, NodeId node) const;
  std::size_t tracked_job_count() const { return jobs_.size(); }
  std::size_t replica_count(BlockId block) const;
  /// True iff the mirror believes `node` holds a replica of `block`.
  bool mirrors_replica(BlockId block, NodeId node) const;

 private:
  /// One pending map waiting on a block's replica set. Carries the owning
  /// job's state pointer so replica deltas touch no hash table per watcher.
  struct Watcher {
    JobId job;
    std::uint32_t map_index;
    JobState* state;
  };

  /// Replicas of `block` currently in `rack` (per the mirror).
  std::size_t rack_replicas(BlockId block, RackId rack) const;
  /// Calls fn(rack) once per distinct rack of `nodes`, in one pass.
  template <typename Fn>
  void for_each_distinct_rack(const std::vector<NodeId>& nodes, Fn&& fn);
  static void drop_candidate(CandidateMap& candidates, std::uint32_t key,
                             std::uint32_t map_index);

  std::size_t num_nodes_;
  std::size_t num_racks_;
  std::vector<RackId> node_rack_;
  /// rack -> last for_each_distinct_rack pass that visited it.
  std::vector<std::uint32_t> rack_stamp_;
  std::uint32_t stamp_ = 0;
  /// Insert counters behind candidate_epoch().
  std::vector<std::uint64_t> node_epoch_;
  std::vector<std::uint64_t> rack_epoch_;

  /// Slab-backed maps (watcher and job nodes churn at task / job rate).
  template <typename K, typename V>
  using IndexMap =
      std::unordered_map<K, V, std::hash<K>, std::equal_to<K>,
                         common::SlabAllocator<std::pair<const K, V>>>;

  /// Mirror of NameNode::locations, maintained from deltas.
  IndexMap<BlockId, std::vector<NodeId>> block_nodes_;
  /// block -> pending maps reading it (a job may appear more than once if
  /// several of its maps share a block).
  IndexMap<BlockId, std::vector<Watcher>> watchers_;
  IndexMap<JobId, JobState> jobs_;
};

}  // namespace dare::sched
