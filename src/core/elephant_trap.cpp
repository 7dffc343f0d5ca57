#include "core/elephant_trap.h"

#include <string>

#include "common/invariant.h"
#include "obs/trace_collector.h"

namespace dare::core {

ElephantTrapPolicy::ElephantTrapPolicy(storage::DataNode& node,
                                       Bytes budget_bytes,
                                       const ElephantTrapParams& params,
                                       Rng& rng)
    : BudgetedPolicy(node, budget_bytes),
      params_(params),
      rng_(rng.fork()),
      eviction_pointer_(ring_.end()) {}

void ElephantTrapPolicy::rebuild(
    const std::vector<storage::BlockMeta>& live_dynamic) {
  ring_.clear();
  index_.clear();
  for (const auto& meta : live_dynamic) {
    if (node_->is_quarantined(meta.id)) continue;
    ring_.push_back(Entry{meta, 0});
    index_[meta.id] = std::prev(ring_.end());
  }
  eviction_pointer_ = ring_.empty() ? ring_.end() : ring_.begin();
}

void ElephantTrapPolicy::on_replica_dropped(BlockId block) {
  const auto it = index_.find(block);
  if (it == index_.end()) return;
  const auto pos = it->second;
  index_.erase(it);
  const auto next = std::next(pos);
  const bool was_pointer = eviction_pointer_ == pos;
  ring_.erase(pos);
  if (was_pointer) {
    eviction_pointer_ = ring_.empty()
                            ? ring_.end()
                            : (next == ring_.end() ? ring_.begin() : next);
  }
}

ElephantTrapPolicy::Ring::iterator ElephantTrapPolicy::advance(
    Ring::iterator it) {
  ++it;
  return it == ring_.end() ? ring_.begin() : it;
}

std::uint64_t ElephantTrapPolicy::access_count(BlockId block) const {
  const auto it = index_.find(block);
  return it == index_.end() ? 0 : it->second->count;
}

bool ElephantTrapPolicy::mark_block_for_deletion(
    const storage::BlockMeta& evicting) {
  if (ring_.empty()) return false;
  auto it = eviction_pointer_ == ring_.end() ? ring_.begin()
                                             : eviction_pointer_;
  // Walk the circular list halving counts (competitive aging) until a block
  // has aged below the threshold or we have visited every entry once.
  std::size_t steps = 0;
  const std::size_t limit = ring_.size();
  while (steps < limit && it->count >= params_.threshold) {
    it->count /= 2;
    it = advance(it);
    ++steps;
  }
  if (it->count >= params_.threshold || it->block.file == evicting.file) {
    // Couldn't find an evictable victim this time (every block is still hot,
    // or the candidate shares the incoming block's popularity class).
    eviction_pointer_ = it;
    return false;
  }
  // Contract (Algorithm 2): the victim never belongs to the file whose
  // block is being inserted — evicting a same-popularity-class replica
  // would thrash. The branch above must have filtered this case.
  DARE_INVARIANT(it->block.file != evicting.file,
                 "ElephantTrap: evicting a block of the inserting file " +
                     std::to_string(evicting.file));
  if (tracer_ != nullptr) {
    tracer_->replica_evicted(node_->id(), it->block.id,
                             static_cast<double>(it->count), steps);
  }
  node_->mark_for_deletion(it->block.id);
  index_.erase(it->block.id);
  auto next = std::next(it);
  ring_.erase(it);
  eviction_pointer_ = ring_.empty()
                          ? ring_.end()
                          : (next == ring_.end() ? ring_.begin() : next);
  return true;
}

bool ElephantTrapPolicy::refresh(BlockId block) {
  const auto it = index_.find(block);
  if (it == index_.end()) return false;
  ++it->second->count;
  return true;
}

bool ElephantTrapPolicy::make_room(const storage::BlockMeta& incoming) {
  while (!fits(incoming)) {
    if (!mark_block_for_deletion(incoming)) return false;
  }
  return true;
}

void ElephantTrapPolicy::track(const storage::BlockMeta& block) {
  Ring::iterator pos;
  if (ring_.empty()) {
    pos = ring_.insert(ring_.end(), Entry{block, 0});
    eviction_pointer_ = pos;
  } else {
    pos = ring_.insert(eviction_pointer_, Entry{block, 0});
  }
  index_[block.id] = pos;
}

}  // namespace dare::core
