// Algorithm 2 of the paper: the probabilistic approach, adapted from the
// ElephantTrap heavy-hitter detector (Lu, Prabhakar & Bonomi, HOTI'07).
//
// Sampling: on every scheduled map task a coin with probability `p` decides
// whether the event is processed at all — both replication of non-local
// reads and refreshing of access counts for local reads. This filters out
// the once-off accesses of unpopular data that the greedy scheme would
// needlessly replicate, and roughly halves the dynamic-replica disk writes.
//
// Competitive aging: when the budget is full, the eviction scan walks a
// circular list of dynamic replicas from `evictionPointer`, halving each
// visited block's access count, until it finds a victim whose count has
// dropped below `threshold` (or it has gone round the whole list). A victim
// belonging to the incoming block's file is never evicted. Blocks are
// inserted right before the eviction pointer, i.e. at the position that will
// be scanned last — the newest replica gets the longest grace period.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/rng.h"
#include "core/budgeted_policy.h"

namespace dare::core {

struct ElephantTrapParams {
  double p = 0.3;        ///< sampling probability
  std::uint32_t threshold = 1;  ///< eviction threshold on the aged count
};

class ElephantTrapPolicy final : public BudgetedPolicy {
 public:
  ElephantTrapPolicy(storage::DataNode& node, Bytes budget_bytes,
                     const ElephantTrapParams& params, Rng& rng);

  /// Crash recovery: re-ring the surviving replicas with zeroed counts and
  /// reset the eviction pointer (aging state is lost with the process).
  /// Quarantined blocks are dropped.
  void rebuild(const std::vector<storage::BlockMeta>& live_dynamic) override;

  /// Forget a replica the name node quarantined out from under us.
  void on_replica_dropped(BlockId block) override;

  std::string name() const override { return "elephant-trap"; }

  const ElephantTrapParams& params() const { return params_; }
  std::size_t tracked_blocks() const { return ring_.size(); }

  /// Aged access count of a tracked block (testing hook); 0 if untracked.
  std::uint64_t access_count(BlockId block) const;

 private:
  struct Entry {
    storage::BlockMeta block;
    std::uint64_t count = 0;
  };
  using Ring = std::list<Entry>;

  /// The coin with probability p: it gates both replication of non-local
  /// reads and count refreshes of local reads.
  bool sample() override { return rng_.bernoulli(params_.p); }
  /// Counts a read of a trapped block.
  bool refresh(BlockId block) override;
  /// Runs markBlockForDeletion until `incoming` fits.
  bool make_room(const storage::BlockMeta& incoming) override;
  /// Inserts right before the eviction pointer: the freshly trapped block
  /// is the last the aging scan will reach, giving it time to prove
  /// popularity.
  void track(const storage::BlockMeta& block) override;

  /// markBlockForDeletion(evicting): circular scan with count halving.
  /// Returns true if a victim was marked; false -> do not replicate.
  bool mark_block_for_deletion(const storage::BlockMeta& evicting);

  /// Advance an iterator circularly.
  Ring::iterator advance(Ring::iterator it);

  ElephantTrapParams params_;
  Rng rng_;
  Ring ring_;
  std::unordered_map<BlockId, Ring::iterator> index_;
  Ring::iterator eviction_pointer_;
};

}  // namespace dare::core
