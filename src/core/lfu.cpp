#include "core/lfu.h"

#include "obs/trace_collector.h"

namespace dare::core {

GreedyLfuPolicy::GreedyLfuPolicy(storage::DataNode& node, Bytes budget_bytes)
    : BudgetedPolicy(node, budget_bytes) {}

std::uint64_t GreedyLfuPolicy::frequency(BlockId block) const {
  const auto it = entries_.find(block);
  return it == entries_.end() ? 0 : it->second.count;
}

bool GreedyLfuPolicy::refresh(BlockId block) {
  const auto it = entries_.find(block);
  if (it == entries_.end()) return false;
  ++it->second.count;
  return true;
}

void GreedyLfuPolicy::track(const storage::BlockMeta& block) {
  entries_[block.id] = Entry{block, 1, tie_counter_++};
}

void GreedyLfuPolicy::rebuild(
    const std::vector<storage::BlockMeta>& live_dynamic) {
  entries_.clear();
  for (const auto& meta : live_dynamic) {
    if (node_->is_quarantined(meta.id)) continue;
    entries_[meta.id] = Entry{meta, 0, tie_counter_++};
  }
}

void GreedyLfuPolicy::on_replica_dropped(BlockId block) {
  entries_.erase(block);
}

bool GreedyLfuPolicy::make_room(const storage::BlockMeta& incoming) {
  while (!fits(incoming)) {
    // Linear victim scan: the per-node dynamic set is small (budget-bounded),
    // so O(n) keeps the structure simple and allocation-free.
    const Entry* victim = nullptr;
    // dare-lint: allow(unordered-iteration) -- the (count, tie) key is a
    // strict total order with a unique minimum, so the scan's result is
    // independent of iteration order.
    for (const auto& [id, entry] : entries_) {
      if (entry.block.file == incoming.file) continue;
      if (victim == nullptr || entry.count < victim->count ||
          (entry.count == victim->count && entry.tie < victim->tie)) {
        victim = &entry;
      }
    }
    if (victim == nullptr) return false;
    const BlockId victim_id = victim->block.id;
    if (tracer_ != nullptr) {
      // LFU has no aging passes; the victim's frequency count is the story.
      tracer_->replica_evicted(node_->id(), victim_id,
                               static_cast<double>(victim->count), 0);
    }
    node_->mark_for_deletion(victim_id);
    entries_.erase(victim_id);
  }
  return true;
}

}  // namespace dare::core
