// The adoption gate shared by DARE's budgeted replication policies.
//
// The paper's two policies are one rule with plug-ins: a non-data-local map
// streams its input block through the node anyway, so the node adopts it
// as a dynamic replica when it fits the node's replication budget after
// evictions. Algorithm 1 (greedy LRU) adopts every remote read; Algorithm 2
// (ElephantTrap) first flips a sampling coin and evicts by competitive
// aging. BudgetedPolicy owns the rule: the order of the checks, the budget,
// the created count and the adopt/skip trace rows. A policy supplies only
// its hooks:
//
//   sample()         the coin; false drops the read entirely (local reads
//                    included). Default: every read is processed.
//   refresh(block)   a read of a tracked replica: update its recency or
//                    frequency. Returns false when `block` is not tracked.
//   make_room(block) evict victims until `block` fits in the budget;
//                    false when no eviction frees enough.
//   track(block)     start tracking a replica the gate just adopted.
//
// New budgeted policies (and per-eviction accounting) plug in here once
// rather than re-writing the gate.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "core/replication_policy.h"
#include "obs/trace_event.h"

namespace dare::core {

class BudgetedPolicy : public ReplicationPolicy {
 public:
  /// The gate, in order: the coin; a refresh of a tracked replica; a local
  /// read ends here; then quarantine, size, make_room and the disk insert;
  /// then the replica is tracked and counted.
  bool on_map_task(const storage::BlockMeta& block, bool local) final;

  std::uint64_t replicas_created() const final { return created_; }

 protected:
  /// `node` must outlive the policy. `budget_bytes` caps the total size of
  /// live dynamic replicas on this node.
  BudgetedPolicy(storage::DataNode& node, Bytes budget_bytes)
      : node_(&node), budget_(budget_bytes) {}

  virtual bool sample() { return true; }
  virtual bool refresh(BlockId block) = 0;
  virtual bool make_room(const storage::BlockMeta& incoming) = 0;
  virtual void track(const storage::BlockMeta& block) = 0;

  /// True when `incoming` fits beside the node's live dynamic replicas.
  bool fits(const storage::BlockMeta& incoming) const {
    return node_->dynamic_bytes() + incoming.size <= budget_;
  }

  storage::DataNode* const node_;
  const Bytes budget_;

 private:
  /// Dynamic bytes on the node as a fraction of the budget.
  double occupancy() const;
  void skip(BlockId block, obs::SkipReason reason) const;

  std::uint64_t created_ = 0;
};

}  // namespace dare::core
