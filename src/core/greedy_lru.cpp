#include "core/greedy_lru.h"

#include "obs/trace_collector.h"

namespace dare::core {

GreedyLruPolicy::GreedyLruPolicy(storage::DataNode& node, Bytes budget_bytes)
    : BudgetedPolicy(node, budget_bytes) {}

bool GreedyLruPolicy::refresh(BlockId block) {
  const auto it = index_.find(block);
  if (it == index_.end()) return false;
  order_.splice(order_.end(), order_, it->second);
  return true;
}

void GreedyLruPolicy::track(const storage::BlockMeta& block) {
  order_.push_back(block);
  index_[block.id] = std::prev(order_.end());
}

void GreedyLruPolicy::rebuild(
    const std::vector<storage::BlockMeta>& live_dynamic) {
  order_.clear();
  index_.clear();
  for (const auto& meta : live_dynamic) {
    if (!node_->is_quarantined(meta.id)) track(meta);
  }
}

void GreedyLruPolicy::on_replica_dropped(BlockId block) {
  const auto it = index_.find(block);
  if (it == index_.end()) return;
  order_.erase(it->second);
  index_.erase(it);
}

bool GreedyLruPolicy::make_room(const storage::BlockMeta& incoming) {
  // Rotating same-file victims to the MRU end is bounded: each pass either
  // evicts or rotates, and we stop after examining every entry once.
  std::size_t examined = 0;
  const std::size_t limit = order_.size();
  while (!fits(incoming) && examined < limit) {
    ++examined;
    const storage::BlockMeta victim = order_.front();
    if (victim.file == incoming.file) {
      // Same popularity class as the incoming block — skip (Algorithm 1).
      order_.splice(order_.end(), order_, order_.begin());
      continue;
    }
    order_.pop_front();
    index_.erase(victim.id);
    node_->mark_for_deletion(victim.id);
    if (tracer_ != nullptr) {
      // LRU keeps no access counts; `examined` plays the aging-pass role.
      tracer_->replica_evicted(node_->id(), victim.id, 0.0, examined);
    }
  }
  return fits(incoming);
}

}  // namespace dare::core
