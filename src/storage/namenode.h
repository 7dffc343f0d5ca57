// The name node: metadata-only master of the simulated HDFS.
//
// Responsibilities mirrored from HDFS + the paper's modifications:
//  * file -> blocks -> replica locations map;
//  * static placement of `replication` copies on distinct nodes, rack-aware
//    when the topology has more than one rack (at least two racks covered
//    when possible);
//  * tolerating over-replicated blocks: dynamic replicas registered via
//    heartbeat (`DNA_DYNREPL` in the paper's patch) are *added* to the block
//    map rather than scheduled for excess-replica deletion, so the scheduler
//    and all file-system users see them;
//  * removal reports drop dynamic replicas from the map.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/topology.h"
#include "storage/block.h"
#include "storage/placement.h"

namespace dare::obs {
class TraceCollector;
}

namespace dare::storage {

class NameNode {
 public:
  /// `topology` may be null (placement then ignores racks); if non-null it
  /// must outlive the name node. `data_nodes` is the number of slave nodes
  /// available for placement, identified as NodeId 0..data_nodes-1.
  /// `placement` overrides the default policy (rack-aware when a multi-rack
  /// topology is given, random otherwise).
  NameNode(std::size_t data_nodes, const net::Topology* topology, Rng& rng,
           std::unique_ptr<PlacementPolicy> placement = nullptr);

  /// Replica-delta observer: called once per actual mutation of a block's
  /// visible location list — static placement at create time, dynamic
  /// replicas registered/evicted via heartbeat, node death dropping every
  /// replica on the node, rejoin re-adoption, repair copies, and bad-block
  /// quarantine. `added` is true when `node` gained a visible replica of
  /// `block`, false when it lost one. Exactly-once: a report that changes
  /// nothing (duplicate add, missing remove) does not fire. Each call comes
  /// after its mutation and before the next one, so locations(block)
  /// reflects exactly the mutations notified so far (create_file registers
  /// a placement one node at a time). The locality index relies on this: it
  /// reads holders through locations() and keeps no copy.
  using ReplicaObserver = std::function<void(BlockId, NodeId, bool added)>;

  /// Install the observer (replacing any previous one). Pass before files
  /// are created so the observer sees the initial placements.
  void set_replica_observer(ReplicaObserver observer) {
    replica_observer_ = std::move(observer);
  }

  /// Attach the structured tracer (null = disabled, the default; borrowed,
  /// must outlive the name node). Emits heartbeat-processing, failure-
  /// declaration, rejoin, and repair events.
  void set_tracer(obs::TraceCollector* tracer) { tracer_ = tracer; }

  /// Create a file of `num_blocks` blocks and place `replication` static
  /// replicas of each. Returns the new file's id. Files and blocks are
  /// numbered 0, 1, 2, ... in creation order; no id is ever freed.
  FileId create_file(const std::string& name, std::size_t num_blocks,
                     Bytes block_size, int replication, SimTime now);

  /// Lookups by id throw std::out_of_range for a negative or unknown id
  /// (as does every call below that takes a block id).
  const FileInfo& file(FileId id) const;
  const BlockMeta& block(BlockId id) const;
  std::size_t file_count() const { return files_.size(); }
  std::size_t block_count() const { return blocks_.size(); }

  /// All nodes currently known to hold a visible replica of `block`
  /// (static placements plus heartbeat-reported dynamic replicas).
  const std::vector<NodeId>& locations(BlockId block) const;

  /// Static placements chosen at create time (stable; used by the cluster
  /// glue to populate data nodes).
  const std::vector<NodeId>& static_locations(BlockId block) const;

  /// Heartbeat processing: register / unregister dynamic replicas.
  /// Unknown blocks throw; duplicate adds and missing removes are ignored
  /// (heartbeats may legitimately repeat after races in real HDFS).
  void report_dynamic_added(NodeId node, const std::vector<BlockId>& blocks);
  void report_dynamic_removed(NodeId node, const std::vector<BlockId>& blocks);

  /// Replica count visible to the scheduler.
  std::size_t replica_count(BlockId block) const;

  /// --- failure handling --------------------------------------------------
  /// Liveness tracking input: a data node checked in at `now`. The name node
  /// never observes deaths directly — it only ever *infers* them from the
  /// heartbeats that stop arriving (see overdue_nodes).
  void heartbeat_received(NodeId node, SimTime now);
  /// The beats `node` skipped while it had nothing to report reached the
  /// master, the latest at `when`: the freshness stamp moves there if that
  /// is later. No trace row (no beat was processed).
  void heartbeat_skipped(NodeId node, SimTime when);

  /// Nodes currently considered alive whose last heartbeat is *strictly*
  /// older than `timeout` (a live node heartbeating every interval is never
  /// flagged at timeout == k * interval). Ascending node-id order.
  std::vector<NodeId> overdue_nodes(SimTime now, SimDuration timeout) const;

  /// A data node was declared dead: drop it from every block's location
  /// list (static and dynamic replicas alike — the disk is unreachable).
  /// Returns the blocks that are now under-replicated (fewer authoritative
  /// replicas than their file's replication factor), in block-id order.
  /// Idempotent: declaring an already-dead node returns an empty list.
  std::vector<BlockId> node_failed(NodeId node);

  /// Whether a node has been declared failed.
  bool is_node_alive(NodeId node) const;
  /// Nodes currently alive: a counter kept by node_failed/node_rejoined.
  std::size_t live_node_count() const { return live_nodes_; }

  /// Result of reconciling a rejoining node's full block report.
  struct RejoinReport {
    std::size_t adopted_static = 0;   ///< stale authoritative copies kept
    std::size_t adopted_dynamic = 0;  ///< stale DARE replicas kept
    /// Stale authoritative copies discarded because re-replication already
    /// restored the block's factor while the node was down (the node must
    /// delete these from disk).
    std::vector<BlockId> pruned_static;
  };

  /// A previously-declared-dead node re-registered and sent a full block
  /// report (`static_blocks` / `dynamic_blocks`: the ids it still holds).
  /// Marks the node alive and re-adopts each reported replica unless the
  /// block is already at (or above) its replication factor, in which case
  /// the stale copy is pruned. Throws std::logic_error if the node was
  /// never declared dead.
  RejoinReport node_rejoined(NodeId node,
                             const std::vector<BlockId>& static_blocks,
                             const std::vector<BlockId>& dynamic_blocks);

  /// Whether `block` has fewer authoritative (static) replicas than its
  /// file's replication factor, clamped to what the live cluster can hold.
  /// The re-replication pipeline uses this to skip repairs that a node
  /// rejoin has already made redundant.
  bool is_under_replicated(BlockId block) const;

  /// Register a repair copy created by the re-replication pipeline; the
  /// copy is authoritative (counted as static). Returns false if the node
  /// already holds the block.
  bool add_repair_replica(BlockId block, NodeId node);

  /// --- data integrity ----------------------------------------------------
  /// Outcome of a Hadoop-style reportBadBlock.
  enum class BadBlockResult {
    kQuarantined,  ///< replica removed from the visible location list
    kLastReplica,  ///< only copy left — kept (corrupt beats lost)
    kStaleReport,  ///< the node no longer holds a visible replica
  };

  /// A reader found `node`'s replica of `block` failing its checksum.
  /// Quarantines the replica: drops it from the visible location list (and
  /// from the authoritative set if it was a static holder), firing the
  /// replica observer so the locality index and schedulers never offer it
  /// again. Last-good-replica protection: when the corrupt copy is the
  /// block's only remaining replica, nothing is mutated and kLastReplica is
  /// returned — a corrupt copy is still better than no copy. Unknown blocks
  /// throw std::out_of_range.
  BadBlockResult report_bad_block(BlockId block, NodeId node);

  /// Blocks with no live replica at all (data loss).
  std::size_t lost_block_count() const;

  /// Total dynamic replicas currently registered (across all blocks).
  std::size_t dynamic_replica_count() const { return dynamic_replicas_; }

  /// All file ids in creation order: 0 .. file_count() - 1.
  std::vector<FileId> all_files() const;

 private:
  void notify_replica(BlockId block, NodeId node, bool added) const {
    if (replica_observer_) replica_observer_(block, node, added);
  }

  /// The replication factor of block `b`'s file (at least 1).
  std::size_t factor(std::size_t b) const;

  ReplicaObserver replica_observer_;
  obs::TraceCollector* tracer_ = nullptr;
  std::size_t data_nodes_;
  const net::Topology* topology_;
  Rng rng_;
  std::unique_ptr<PlacementPolicy> placement_;
  /// Metadata tables indexed by id: file and block ids run 0, 1, 2, ... in
  /// creation order and are never freed, so each id is its record's slot.
  std::vector<FileInfo> files_;
  std::vector<BlockMeta> blocks_;
  std::vector<std::vector<NodeId>> static_locations_;
  std::vector<std::vector<NodeId>> locations_;
  std::vector<bool> node_alive_;
  std::size_t live_nodes_;  ///< true entries of node_alive_
  std::vector<SimTime> last_heartbeat_;
  std::size_t dynamic_replicas_ = 0;
};

}  // namespace dare::storage
