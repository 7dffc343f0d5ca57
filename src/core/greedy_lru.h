// Algorithm 1 of the paper: the greedy reactive scheme with LRU eviction.
//
// Every non-data-local map task triggers replication of its input block at
// the fetching node. A usage-ordered queue (refreshed on every read) selects
// LRU victims when the replication budget would be exceeded; victims
// belonging to the same file as the incoming block are skipped (they share
// its popularity, so evicting them would thrash). Victims are tombstoned for
// lazy deletion by the data node.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "core/budgeted_policy.h"

namespace dare::core {

class GreedyLruPolicy final : public BudgetedPolicy {
 public:
  /// `node` must outlive the policy. `budget_bytes` caps the total size of
  /// live dynamic replicas on this node.
  GreedyLruPolicy(storage::DataNode& node, Bytes budget_bytes);

  /// Crash recovery: repopulate the LRU queue from the surviving replicas
  /// (recency is lost; the given order — block id — becomes the new LRU
  /// order, refreshed by subsequent reads). Quarantined blocks are dropped.
  void rebuild(const std::vector<storage::BlockMeta>& live_dynamic) override;

  /// Forget a replica the name node quarantined out from under us.
  void on_replica_dropped(BlockId block) override;

  std::string name() const override { return "greedy-lru"; }

  std::size_t tracked_blocks() const { return order_.size(); }

 private:
  /// Moves a tracked block to the MRU end of the queue.
  bool refresh(BlockId block) override;
  /// Evict LRU victims until `incoming` fits in the budget. Same-file
  /// victims are rotated to the MRU end rather than evicted. Returns false
  /// when no eviction could free enough space (every candidate shares the
  /// incoming block's file).
  bool make_room(const storage::BlockMeta& incoming) override;
  /// Enqueues a new replica at the MRU end.
  void track(const storage::BlockMeta& block) override;

  /// LRU queue: front = least recently used, back = most recently used.
  std::list<storage::BlockMeta> order_;
  std::unordered_map<BlockId, std::list<storage::BlockMeta>::iterator> index_;
};

}  // namespace dare::core
