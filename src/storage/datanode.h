// A data node: block storage plus the disk model, including the
// dynamically-replicated block area that DARE manages.
//
// Lifecycle of a dynamic replica (paper Section IV):
//   insert_dynamic()          — the block just read remotely is written to
//                               the local store; counts as one disk write
//                               (the thrashing metric);
//   [next heartbeat]          — drain_report() carries the addition to the
//                               name node, which makes it schedulable;
//   mark_for_deletion()       — the eviction policy tombstones it; it stops
//                               being visible/usable immediately and its
//                               bytes stop counting against the budget;
//   reclaim_marked()          — lazy physical deletion at idle time; the
//                               next heartbeat reports the removal.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/profile.h"
#include "storage/block.h"

namespace dare::obs {
class TraceCollector;
}

namespace dare::storage {

class DataNode {
 public:
  DataNode(NodeId id, const net::DiskProfile& disk, Rng& rng);

  NodeId id() const { return id_; }

  /// Attach the structured tracer (null = disabled, the default; borrowed,
  /// must outlive the node). Emits physical-disk events (lazy reclaim).
  void set_tracer(obs::TraceCollector* tracer) { tracer_ = tracer; }

  /// --- static (placement-time) replicas -------------------------------
  void add_static_block(const BlockMeta& block);
  /// Drop an authoritative copy (rejoin reconciliation pruned it as
  /// surplus). Throws std::logic_error if the block is not held statically.
  void remove_static_block(BlockId block);
  Bytes static_bytes() const { return static_bytes_; }
  const std::vector<BlockMeta>& static_blocks() const {
    return static_blocks_;
  }

  /// --- dynamic replicas (DARE-managed) --------------------------------
  /// Declare the replication budget this node's policy enforces. Purely an
  /// auditing hook: once set, the invariant layer checks that live dynamic
  /// bytes never exceed it after any insertion. Negative clears the audit.
  void set_audited_budget(Bytes budget_bytes) { audited_budget_ = budget_bytes; }

  /// Insert a dynamically replicated block. Returns false (no-op) if the
  /// block is already stored here, statically or dynamically (including
  /// marked-for-deletion dynamic replicas, which still occupy disk).
  bool insert_dynamic(const BlockMeta& block);

  /// Tombstone a dynamic replica: immediately invisible, budget released,
  /// physical bytes reclaimed later. Returns false if not a live dynamic
  /// replica.
  bool mark_for_deletion(BlockId block);

  /// Physically delete marked replicas (lazy deletion). Returns how many
  /// blocks were reclaimed.
  std::size_t reclaim_marked();

  /// Bytes held by live (unmarked) dynamic replicas — the quantity the
  /// replication budget constrains.
  Bytes dynamic_bytes() const { return dynamic_bytes_; }

  /// Live dynamic replica block ids, sorted by id (deterministic across
  /// platforms and hash-map implementations).
  std::vector<BlockId> dynamic_blocks() const;

  /// Full metadata of the live dynamic replicas, sorted by block id. Used
  /// by rejoin reconciliation and by policies rebuilding their state from
  /// the surviving disk contents.
  std::vector<BlockMeta> dynamic_block_metas() const;

  std::size_t marked_count() const { return marked_.size(); }

  /// --- data integrity ---------------------------------------------------
  /// Silently flip a physical copy (static, dynamic, or tombstoned) to
  /// corrupt; the damage surfaces when a read verifies its checksum.
  /// Returns false if no physical copy is held or it is already corrupt.
  bool corrupt_replica(BlockId block);

  /// Is the held copy of `block` corrupt? (false when not held at all)
  bool is_corrupt(BlockId block) const;

  /// Physically drop the local copy of `block` (any lifecycle state) after
  /// the NameNode quarantined the replica, and remember the quarantine so
  /// the replication policy refuses to re-adopt the block until a fresh
  /// authoritative copy arrives via add_static_block. Does NOT queue a
  /// heartbeat delta: the NameNode already removed the location when it
  /// processed the bad-block report. Returns false if no copy was held.
  bool quarantine_replica(BlockId block);

  /// Is `block` locally quarantined (dynamic adoption banned)?
  bool is_quarantined(BlockId block) const;

  /// Corrupt block ids, sorted. Used by rejoin reconciliation to surface
  /// damage that accrued while the node was offline.
  std::vector<BlockId> corrupt_blocks() const;

  /// --- failure handling -------------------------------------------------
  /// The node's disk is lost (permanent failure): every block — static,
  /// dynamic, tombstoned — and all pending report deltas vanish. The
  /// instrumentation counters survive (they describe history, not state).
  void wipe_disk();

  /// Drop the incremental heartbeat deltas without applying them; a full
  /// block report at rejoin supersedes anything queued before the crash.
  void clear_pending_reports();

  /// --- queries ---------------------------------------------------------
  /// Does a map task on this node have local access to `block`?
  /// (static replica, or live dynamic replica).
  bool has_visible_block(BlockId block) const;
  bool has_static_block(BlockId block) const;
  bool has_dynamic_block(BlockId block) const;
  /// Any physical copy at all, including tombstoned (marked) dynamic
  /// replicas — used by the re-replication pipeline to pick destinations.
  bool has_any_copy(BlockId block) const;

  /// --- heartbeat -------------------------------------------------------
  struct Report {
    std::vector<BlockId> added;    ///< dynamic replicas created since last HB
    std::vector<BlockId> removed;  ///< dynamic replicas deleted since last HB
  };
  /// Drain and return the pending report (cleared afterwards). A block
  /// inserted and deleted within one heartbeat interval cancels out.
  Report drain_report();
  /// The next heartbeat has something to carry: a pending report or a
  /// marked replica to reclaim.
  bool has_beat_work() const {
    return !pending_added_.empty() || !pending_removed_.empty() ||
           !marked_.empty();
  }
  /// Observer of has_beat_work() turning true, called with this node's id
  /// after the mutation (an insert or a mark): the cluster wakes the
  /// node's heartbeat chain. One observer; setting replaces it.
  using BeatWorkObserver = std::function<void(NodeId)>;
  void set_beat_work_observer(BeatWorkObserver observer) {
    beat_work_observer_ = std::move(observer);
  }

  /// --- disk model ------------------------------------------------------
  /// One sampled sequential-read bandwidth figure, MB/s.
  double sample_disk_mbps();
  /// Duration to read `bytes` sequentially from local disk.
  SimDuration read_duration(Bytes bytes);

  /// --- instrumentation -------------------------------------------------
  /// Total dynamic-replica insertions ever (== extra disk writes incurred;
  /// the paper's thrashing comparison metric).
  std::uint64_t dynamic_insertions() const { return dynamic_insertions_; }
  std::uint64_t dynamic_evictions() const { return dynamic_evictions_; }

 private:
  NodeId id_;
  net::DiskProfile disk_;
  Rng rng_;
  obs::TraceCollector* tracer_ = nullptr;

  std::vector<BlockMeta> static_blocks_;
  std::unordered_set<BlockId> static_index_;
  Bytes static_bytes_ = 0;

  /// Slab-backed: the DARE policies insert and evict dynamic replicas at
  /// decision rate, and the insert/evict/reclaim cycle recycles the same
  /// handful of arena nodes instead of hammering the heap.
  using ReplicaMap = std::unordered_map<
      BlockId, BlockMeta, std::hash<BlockId>, std::equal_to<BlockId>,
      common::SlabAllocator<std::pair<const BlockId, BlockMeta>>>;
  ReplicaMap dynamic_;  // live replicas
  ReplicaMap marked_;   // tombstoned, on disk
  Bytes dynamic_bytes_ = 0;
  Bytes audited_budget_ = -1;  // < 0: no budget audit installed

  std::unordered_set<BlockId> corrupt_;      // physical copies with bad checksums
  std::unordered_set<BlockId> quarantined_;  // adoption-banned after bad-block report

  std::vector<BlockId> pending_added_;
  std::vector<BlockId> pending_removed_;
  BeatWorkObserver beat_work_observer_;

  std::uint64_t dynamic_insertions_ = 0;
  std::uint64_t dynamic_evictions_ = 0;
};

}  // namespace dare::storage
