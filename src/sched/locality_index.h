// Inverted locality index: replica location -> pending map tasks.
//
// The JobTracker's hottest question is "does job J have a pending map whose
// input block has a replica on node N (or in N's rack)?". The seed answered
// it by scanning every pending map of the job against the name node's block
// map — O(pending maps) per job per scheduling opportunity, and the DARE
// policies make the question *more* frequent by creating replicas that turn
// misses into hits. This index inverts the relationship and maintains it
// incrementally. Each job's JobState (held by its JobRuntime) keeps
//
//   by_node      (node, map) for each map of the job whose block had a
//                visible replica on `node` while the map was watched
//   by_rack      (rack, map) for each map whose block had >= 1 visible
//                replica anywhere in `rack` while it was watched
//
// A map is watched while it is pending. Two event streams keep the watched
// maps' entries current:
//  * replica deltas from the NameNode (static placement at file create,
//    dynamic DARE replicas appearing/evicting via heartbeat, node death
//    dropping every replica on the node, rejoin re-adoption, repair copies);
//  * watch/unwatch calls from the JobTable as maps enter and leave the
//    pending set (job admission, launch, failure requeue, job kill).
//
// The index stores no replica locations of its own: it reads a block's
// holders from its locations source (NameNode::locations in a cluster).
// The name node applies each mutation before notifying it, so at every
// delta the source already lists the new holder set.
//
// A launch (unwatch) only clears the map's watch flag and drops its
// watcher: its entries stay in the tables, and every query skips the
// entries of unwatched maps. A re-watch (requeue) first drops the map's
// left-over entries, which describe its block's replicas at launch, then
// indexes the current ones; the JobTable empties a job's tables when it
// retires. So queries see exactly the watched maps' current candidates.
//
// Equivalence with the linear scan: the scan returns the *first* pending
// position whose block matches, so JobTable answers queries by taking the
// argmin of pending-position over the candidate set (see
// JobRuntime::pending_pos). The order in which a query visits candidates
// therefore never affects results. Replica deltas arrive in a fixed order
// (NameNode::node_failed notifies in block-id order), and the argmin keeps
// results independent of whatever table layout that order leaves.
//
// Cost: admitting a job allocates each of its two tables once, sized from
// its blocks' replica sets, and inserts one node entry per replica and one
// rack entry per distinct rack (found in one pass with a rack-sized stamp
// array). A launch is O(watchers of its block), whatever the replica count
// R; a requeue is O(table) to drop the left-over entries plus O(R). DARE's
// adoptions push R into the hundreds for hot blocks, so nothing here may be
// O(R^2), and nothing per launch may be O(R).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sched/job.h"

namespace dare::sched {

/// One job's candidate table: a multiset of (key, map index) pairs, where
/// the key is a node id (by_node) or a rack id (by_rack).
///
/// The whole table is one flat open-addressing array of 8-byte entries with
/// linear probing, so every entry of a key lies on that key's probe chain
/// (home slot to the next empty slot). A query walks the chain and reports
/// each matching map index; erase pulls later chain entries back into the
/// hole (backward shift), so the table needs no tombstones. The array is
/// sized once by reserve() and doubles when an insert would fill it past
/// half; it is never allocated per key: under DARE a hot block sits on
/// dozens of nodes, so one job's candidates span hundreds of keys, and a
/// list per key would cost a heap allocation and a vector header for each.
/// Keys are Fibonacci-hashed: node and rack ids are dense small integers,
/// and an identity hash would pile every key's run into the low slots.
class CandidateMap {
 public:
  /// Calls fn(map_index) for every entry under `key`, in no fixed order.
  template <typename Fn>
  void for_each(std::uint32_t key, Fn&& fn) const {
    if (size_ == 0) return;
    const std::size_t mask = capacity() - 1;
    for (std::size_t i = home(key); entries_[i].key != kEmptyKey;
         i = (i + 1) & mask) {
      if (entries_[i].key == key) fn(entries_[i].map_index);
    }
  }

  /// Calls fn(key, map_index) for every entry, in no fixed order.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    if (size_ == 0) return;
    const Entry* const end = entries_.get() + capacity();
    for (const Entry* e = entries_.get(); e != end; ++e) {
      if (e->key != kEmptyKey) fn(e->key, e->map_index);
    }
  }

  /// Adds one (key, map_index) entry. `key` must differ from kEmptyKey.
  void insert(std::uint32_t key, std::uint32_t map_index) {
    if ((std::size_t{size_} + 1) * 2 > capacity()) grow();
    place(Entry{key, map_index});
    ++size_;
  }

  /// Removes one (key, map_index) entry. Returns false, leaving the table
  /// unchanged, when no such entry exists.
  bool erase(std::uint32_t key, std::uint32_t map_index);

  /// Removes every entry of `map_index`, in one pass over the array.
  /// Returns how many it removed.
  std::size_t erase_map(std::uint32_t map_index);

  /// Makes room for `entries` entries in all, so that they fit without a
  /// doubling: at most one allocation, none when they already fit.
  void reserve(std::size_t entries);

  std::size_t size() const { return size_; }
  std::size_t capacity() const {
    return entries_ ? std::size_t{1} << (64 - shift_) : 0;
  }
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
    const std::size_t mask = capacity() - 1;
    std::size_t i = home(e.key);
    while (entries_[i].key != kEmptyKey) i = (i + 1) & mask;
    entries_[i] = e;
  }
  /// Empties occupied slot `hole`, backward-shifting its chain.
  void erase_at(std::size_t hole);
  void grow() { rehash(entries_ ? capacity() * 2 : 8); }
  /// Moves every entry into a fresh array of `capacity` (a power of two).
  void rehash(std::size_t capacity);

  // Two words with the array pointer: every active job holds two tables.
  std::unique_ptr<Entry[]> entries_;  // capacity() slots, at most half full
  std::uint32_t size_ = 0;
  std::uint32_t shift_ = 0;  // 64 - log2(capacity())
};

/// One watch flag per map of a job. The first 64 flags are one inline word,
/// so a job of up to 64 maps (every job of the wl2 stream) adds no heap
/// allocation to its state for them; flags past 64 are words beside it.
class WatchFlags {
 public:
  /// Makes room for flags 0 .. maps - 1; flags it adds are clear.
  void resize(std::size_t maps) {
    if (maps > 64) spill_.resize(std::max(spill_.size(), (maps - 1) / 64));
  }
  bool test(std::uint32_t map_index) const {
    return ((map_index < 64 ? inline_ : spill_[(map_index >> 6) - 1]) >>
            (map_index & 63)) &
           1u;
  }
  void set(std::uint32_t map_index, bool watched) {
    std::uint64_t& word =
        map_index < 64 ? inline_ : spill_[(map_index >> 6) - 1];
    const std::uint64_t bit = std::uint64_t{1} << (map_index & 63);
    word = watched ? (word | bit) : (word & ~bit);
  }
  bool none() const {
    return inline_ == 0 &&
           std::all_of(spill_.begin(), spill_.end(),
                       [](std::uint64_t word) { return word == 0; });
  }

 private:
  std::uint64_t inline_ = 0;
  std::vector<std::uint64_t> spill_;  // flags 64 onwards, 64 per word
};

class LocalityIndex {
 public:
  /// One job's candidate tables, held by value in the job's JobRuntime
  /// (whose address is stable for the job's lifetime), so the find_*_map
  /// hot path reads them without any hash lookup.
  struct JobState {
    /// (node, map index) per replica of the map's block.
    CandidateMap by_node;
    /// (rack, map index) per rack holding >= 1 of those replicas.
    CandidateMap by_rack;
    /// Set while the map is watched. Entries of an unwatched map are
    /// left-overs that every query skips.
    WatchFlags watched;
  };

  /// Deterministic upkeep counters (RunResult::work carries them).
  struct Work {
    /// Entries inserted by a watch or by the replica-added fan-out.
    std::uint64_t candidate_inserts = 0;
    /// Entries erased by a re-watch or by the replica-removed fan-out.
    std::uint64_t candidate_erases = 0;
    /// Table allocations: one per reserve() that allocates, one per
    /// doubling.
    std::uint64_t candidate_allocations = 0;
    /// Watchers visited by replica deltas.
    std::uint64_t watcher_visits = 0;
  };

  /// The visible holders of a block, in the name node's order.
  using Locations = std::function<const std::vector<NodeId>&(BlockId)>;

  /// `node_rack[n]` is the rack of node n; `num_racks` bounds its values.
  /// `locations` answers every holder query; the index stores none.
  LocalityIndex(std::size_t num_nodes, std::vector<RackId> node_rack,
                std::size_t num_racks, Locations locations);

  /// --- replica deltas (NameNode observer) --------------------------------
  /// A visible replica of `block` appeared on / disappeared from `node`.
  /// One call per actual mutation, made after `locations(block)` already
  /// reflects it.
  void replica_added(BlockId block, NodeId node);
  void replica_removed(BlockId block, NodeId node);

  /// --- pending-map lifecycle (JobTable) ----------------------------------
  /// A job arrived with every map pending (map i reads maps[i].block):
  /// sizes both of `state`'s tables once and watches every map. `state`
  /// must stay at its address until none of its maps is watched.
  void admit_job(JobState& state, const std::vector<MapTaskSpec>& maps);
  /// Map `map_index` (reading `block`) of the job owning `state` re-entered
  /// the pending set (a requeue). Drops the entries it left at its launch,
  /// then indexes its block's current replicas.
  void watch_map(JobState& state, std::size_t map_index, BlockId block);
  /// ... left the pending set (launched, or dropped by a job kill). Its
  /// entries stay until a re-watch or the job's retirement.
  void unwatch_map(JobState& state, std::size_t map_index, BlockId block);

  /// --- queries ------------------------------------------------------------
  /// Hash-free queries over a job's JobState (the scheduling hot path: the
  /// Fair scheduler probes every active job per slot offer, so a map lookup
  /// per probe showed up in large-run profiles). Call fn(map_index) for each
  /// watched map of the job whose block is on `node` / in `node`'s rack.
  template <typename Fn>
  void for_each_node_candidate(const JobState& state, NodeId node,
                               Fn&& fn) const {
    state.by_node.for_each(static_cast<std::uint32_t>(node),
                           [&](std::uint32_t mi) {
                             if (state.watched.test(mi)) fn(mi);
                           });
  }
  template <typename Fn>
  void for_each_rack_candidate(const JobState& state, NodeId node,
                               Fn&& fn) const {
    state.by_rack.for_each(
        static_cast<std::uint32_t>(node_rack_[static_cast<std::size_t>(node)]),
        [&](std::uint32_t mi) {
          if (state.watched.test(mi)) fn(mi);
        });
  }

  /// Calls fn(rack) for each rack in which a watched map of the job has a
  /// rack candidate (a rack repeats once per such map).
  template <typename Fn>
  void for_each_candidate_rack(const JobState& state, Fn&& fn) const {
    state.by_rack.for_each_entry([&](std::uint32_t rack, std::uint32_t mi) {
      if (state.watched.test(mi)) fn(static_cast<RackId>(rack));
    });
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
  const Work& work() const { return work_; }

  /// --- introspection (tests / validate) -----------------------------------
  /// Sorted watched map indices of the job whose block is on `node` / in
  /// `node`'s rack.
  std::vector<std::uint32_t> node_candidates(const JobState& state,
                                             NodeId node) const;
  std::vector<std::uint32_t> rack_candidates(const JobState& state,
                                             NodeId node) const;

 private:
  /// One pending map waiting on a block's replica set. Carries the owning
  /// job's state so replica deltas touch no hash table per watcher.
  struct Watcher {
    JobState* state;
    std::uint32_t map_index;
  };

  /// Replicas of `block` currently in `rack`.
  std::size_t rack_replicas(BlockId block, RackId rack) const;
  /// Calls fn(rack) once per distinct rack of `nodes`, in one pass.
  template <typename Fn>
  void for_each_distinct_rack(const std::vector<NodeId>& nodes, Fn&& fn);
  /// Marks map `map_index` watched and inserts its block's current
  /// candidates; the map must own no entries.
  void index_map(JobState& state, std::uint32_t map_index, BlockId block);
  void reserve(CandidateMap& candidates, std::size_t entries);
  void add_candidate(CandidateMap& candidates, std::uint32_t key,
                     std::uint32_t map_index);
  void drop_candidate(CandidateMap& candidates, std::uint32_t key,
                      std::uint32_t map_index);

  std::size_t num_nodes_;
  std::size_t num_racks_;
  std::vector<RackId> node_rack_;
  Locations locations_;
  /// rack -> last for_each_distinct_rack pass that visited it.
  std::vector<std::uint32_t> rack_stamp_;
  std::uint32_t stamp_ = 0;
  /// Insert counters behind candidate_epoch().
  std::vector<std::uint64_t> node_epoch_;
  std::vector<std::uint64_t> rack_epoch_;
  Work work_;

  /// Indexed by block id: the watched maps reading the block (a job may
  /// appear more than once if several of its maps share a block). Grown by
  /// index_map; a slot whose watchers all left stays, empty.
  std::vector<std::vector<Watcher>> watchers_;
};

}  // namespace dare::sched
