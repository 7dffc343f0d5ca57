// Least-frequently-used eviction baseline (extension).
//
// Section IV of the paper notes that the choice between LRU and LFU "should
// be made after profiling typical workloads"; the evaluation only ships LRU
// and ElephantTrap. We provide greedy-LFU as an ablation so the bench suite
// can quantify the gap: LFU keeps long-term-popular blocks but is slow to
// evict formerly-hot data (no aging), which is exactly the failure mode the
// ElephantTrap's competitive aging addresses.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/budgeted_policy.h"

namespace dare::core {

class GreedyLfuPolicy final : public BudgetedPolicy {
 public:
  GreedyLfuPolicy(storage::DataNode& node, Bytes budget_bytes);

  /// Crash recovery: re-track the surviving replicas with zeroed counts
  /// (frequency history is lost with the process). Quarantined blocks are
  /// dropped.
  void rebuild(const std::vector<storage::BlockMeta>& live_dynamic) override;

  /// Forget a replica the name node quarantined out from under us.
  void on_replica_dropped(BlockId block) override;

  std::string name() const override { return "greedy-lfu"; }

  std::size_t tracked_blocks() const { return entries_.size(); }
  std::uint64_t frequency(BlockId block) const;

 private:
  struct Entry {
    storage::BlockMeta block;
    std::uint64_t count = 0;
    std::uint64_t tie = 0;  ///< insertion order; older evicts first on ties
  };

  /// Counts a read of a tracked block.
  bool refresh(BlockId block) override;
  /// Evicts the least-frequently-used block of another file until
  /// `incoming` fits.
  bool make_room(const storage::BlockMeta& incoming) override;
  /// Tracks a new replica with one read counted.
  void track(const storage::BlockMeta& block) override;

  std::unordered_map<BlockId, Entry> entries_;
  std::uint64_t tie_counter_ = 0;
};

}  // namespace dare::core
