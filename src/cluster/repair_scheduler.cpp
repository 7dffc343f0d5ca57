#include "cluster/repair_scheduler.h"

#include <stdexcept>

namespace dare::cluster {

RepairScheduler::RepairScheduler(RepairPolicy policy)
    : policy_(policy), queue_(Cmp{policy}) {}

void RepairScheduler::insert(const Entry& entry) {
  const auto [it, inserted] = queue_.insert(entry);
  if (!inserted) {
    // Keys are unique by construction: (class, time, BlockId) collides only
    // for the same block, and the membership guard already rejected that.
    throw std::logic_error("RepairScheduler: duplicate ordering key");
  }
  queued_.emplace(entry.block, it);
  // Sorting before the pass cursor, the entry is the pass's next visit:
  // popping the front would return it before anything at the cursor.
  if (in_pass_ &&
      (cursor_ == queue_.end() || queue_.key_comp()(entry, *cursor_))) {
    if (jump_ != queue_.end()) {
      throw std::logic_error(
          "RepairScheduler: two entries re-queued behind the pass cursor");
    }
    jump_ = it;
  }
}

bool RepairScheduler::enqueue(BlockId block, RepairClass cls, SimTime now) {
  const auto found = queued_.find(block);
  if (found != queued_.end()) {
    // Dedup guard. An escalation (another replica died while the block sat
    // queued as bulk) upgrades the entry in place, keeping its original
    // enqueue time and sequence so it only ever gains priority.
    if (cls == RepairClass::kCritical &&
        found->second->cls == RepairClass::kBulk) {
      if (in_pass_) {
        // Only the block of the entry just taken may be re-queued during
        // a pass, and a taken block is not queued.
        throw std::logic_error("RepairScheduler: upgrade during a pass");
      }
      Entry upgraded = *found->second;
      upgraded.cls = RepairClass::kCritical;
      queue_.erase(found->second);
      queued_.erase(found);
      insert(upgraded);
    }
    return false;
  }
  Entry entry;
  entry.block = block;
  entry.cls = cls;
  entry.enqueued = now;
  entry.seq = next_seq_++;
  entry.ready = now;
  insert(entry);
  return true;
}

bool RepairScheduler::contains(BlockId block) const {
  return queued_.find(block) != queued_.end();
}

void RepairScheduler::begin_pass() {
  in_pass_ = true;
  cursor_ = queue_.begin();
  jump_ = queue_.end();
  visit_ = queue_.end();
}

const RepairScheduler::Entry* RepairScheduler::next_in_pass() {
  if (jump_ != queue_.end()) {
    visit_ = jump_;
    jump_ = queue_.end();
  } else if (cursor_ != queue_.end()) {
    visit_ = cursor_++;
  } else {
    visit_ = queue_.end();
    return nullptr;
  }
  return &*visit_;
}

RepairScheduler::Entry RepairScheduler::take() {
  if (!in_pass_ || visit_ == queue_.end()) {
    throw std::logic_error("RepairScheduler: take without a visited entry");
  }
  const Entry entry = *visit_;
  queued_.erase(entry.block);
  queue_.erase(visit_);
  visit_ = queue_.end();
  return entry;
}

bool RepairScheduler::mark_preempted() {
  if (!in_pass_ || visit_ == queue_.end()) {
    throw std::logic_error(
        "RepairScheduler: mark_preempted without a visited entry");
  }
  const bool first = !visit_->preempted;
  visit_->preempted = true;
  return first;
}

void RepairScheduler::reinsert(const Entry& entry) {
  if (contains(entry.block)) {
    throw std::logic_error(
        "RepairScheduler: reinsert of a block that is already queued");
  }
  insert(entry);
}

std::vector<RepairScheduler::Entry> RepairScheduler::drain() {
  std::vector<Entry> entries(queue_.begin(), queue_.end());
  queue_.clear();
  queued_.clear();
  return entries;
}

bool RepairScheduler::consistent() const {
  if (queued_.size() != queue_.size()) return false;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const auto found = queued_.find(it->block);
    if (found == queued_.end() || found->second != it) return false;
  }
  return true;
}

}  // namespace dare::cluster
