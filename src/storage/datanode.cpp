#include "storage/datanode.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/invariant.h"
#include "net/measurement.h"
#include "obs/trace_collector.h"

namespace dare::storage {

DataNode::DataNode(NodeId id, const net::DiskProfile& disk, Rng& rng)
    : id_(id), disk_(disk), rng_(rng.fork()) {}

void DataNode::add_static_block(const BlockMeta& block) {
  if (static_index_.count(block.id)) {
    throw std::logic_error("DataNode: duplicate static block");
  }
  static_blocks_.push_back(block);
  static_index_.insert(block.id);
  static_bytes_ += block.size;
  // A fresh authoritative copy lifts a standing quarantine (re-replication
  // repaired the block here) and is clean by construction.
  quarantined_.erase(block.id);
  corrupt_.erase(block.id);
}

void DataNode::remove_static_block(BlockId block) {
  const auto it = static_index_.find(block);
  if (it == static_index_.end()) {
    throw std::logic_error("DataNode: removing a static block not held");
  }
  static_index_.erase(it);
  const auto vit = std::find_if(
      static_blocks_.begin(), static_blocks_.end(),
      [block](const BlockMeta& meta) { return meta.id == block; });
  DARE_INVARIANT(vit != static_blocks_.end(),
                 "DataNode: static index out of sync with block list for "
                 "block " + std::to_string(block));
  static_bytes_ -= vit->size;
  DARE_INVARIANT(static_bytes_ >= 0, "DataNode: static bytes went negative");
  static_blocks_.erase(vit);
  corrupt_.erase(block);
}

bool DataNode::insert_dynamic(const BlockMeta& block) {
  if (static_index_.count(block.id) || dynamic_.count(block.id) ||
      marked_.count(block.id)) {
    return false;
  }
  // Quarantined blocks are adoption-banned until a fresh authoritative copy
  // arrives (backstop; the policies check before calling).
  if (quarantined_.count(block.id)) return false;
  DARE_INVARIANT(block.size >= 0, "DataNode: dynamic block with negative size");
  dynamic_.emplace(block.id, block);
  dynamic_bytes_ += block.size;
  // No duplicate physical replica of a block, in any lifecycle state.
  DARE_INVARIANT(static_index_.count(block.id) + marked_.count(block.id) == 0,
                 "DataNode: duplicate replica of block " +
                     std::to_string(block.id));
  // The policy contract: a correctly implemented eviction scheme made room
  // *before* inserting, so live dynamic bytes never exceed the budget.
  DARE_INVARIANT(audited_budget_ < 0 || dynamic_bytes_ <= audited_budget_,
                 "DataNode: dynamic bytes " + std::to_string(dynamic_bytes_) +
                     " exceed replication budget " +
                     std::to_string(audited_budget_) + " on node " +
                     std::to_string(id_));
  const bool was_idle = !has_beat_work();
  pending_added_.push_back(block.id);
  ++dynamic_insertions_;
  if (was_idle && beat_work_observer_) beat_work_observer_(id_);
  return true;
}

bool DataNode::mark_for_deletion(BlockId block) {
  const auto it = dynamic_.find(block);
  if (it == dynamic_.end()) return false;
  dynamic_bytes_ -= it->second.size;
  DARE_INVARIANT(dynamic_bytes_ >= 0,
                 "DataNode: live dynamic bytes went negative");
  const bool was_idle = !has_beat_work();
  marked_.emplace(it->first, it->second);
  dynamic_.erase(it);
  pending_removed_.push_back(block);
  ++dynamic_evictions_;
  if (was_idle && beat_work_observer_) beat_work_observer_(id_);
  return true;
}

std::size_t DataNode::reclaim_marked() {
  const std::size_t n = marked_.size();
  if (n == 0) return 0;  // the common idle beat
  // dare-lint: allow(unordered-iteration) -- erasing from an unordered set,
  // no observable order
  for (const auto& [id, _] : marked_) corrupt_.erase(id);
  marked_.clear();
  if (tracer_ != nullptr) tracer_->disk_reclaim(id_, n);
  return n;
}

bool DataNode::corrupt_replica(BlockId block) {
  if (!has_any_copy(block)) return false;
  return corrupt_.insert(block).second;
}

bool DataNode::is_corrupt(BlockId block) const {
  return corrupt_.count(block) != 0;
}

bool DataNode::quarantine_replica(BlockId block) {
  bool dropped = false;
  if (static_index_.count(block) != 0) {
    remove_static_block(block);
    dropped = true;
  } else if (const auto it = dynamic_.find(block); it != dynamic_.end()) {
    dynamic_bytes_ -= it->second.size;
    DARE_INVARIANT(dynamic_bytes_ >= 0,
                   "DataNode: live dynamic bytes went negative");
    dynamic_.erase(it);
    dropped = true;
  } else if (marked_.erase(block) != 0) {
    dropped = true;
  }
  if (!dropped) return false;
  corrupt_.erase(block);
  quarantined_.insert(block);
  return true;
}

bool DataNode::is_quarantined(BlockId block) const {
  return quarantined_.count(block) != 0;
}

std::vector<BlockId> DataNode::corrupt_blocks() const {
  std::vector<BlockId> out(corrupt_.begin(), corrupt_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<BlockId> DataNode::dynamic_blocks() const {
  std::vector<BlockId> out;
  out.reserve(dynamic_.size());
  // dare-lint: allow(unordered-iteration) -- sorted before returning
  for (const auto& [id, _] : dynamic_) out.push_back(id);
  // Sorted so downstream consumers (e.g. the popularity-index float sums in
  // Cluster::collect_results) see a platform-independent order.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<BlockMeta> DataNode::dynamic_block_metas() const {
  std::vector<BlockMeta> out;
  out.reserve(dynamic_.size());
  // dare-lint: allow(unordered-iteration) -- sorted before returning
  for (const auto& [_, meta] : dynamic_) out.push_back(meta);
  std::sort(out.begin(), out.end(),
            [](const BlockMeta& a, const BlockMeta& b) { return a.id < b.id; });
  return out;
}

void DataNode::wipe_disk() {
  static_blocks_.clear();
  static_index_.clear();
  static_bytes_ = 0;
  dynamic_.clear();
  marked_.clear();
  dynamic_bytes_ = 0;
  corrupt_.clear();
  quarantined_.clear();
  pending_added_.clear();
  pending_removed_.clear();
}

void DataNode::clear_pending_reports() {
  pending_added_.clear();
  pending_removed_.clear();
}

bool DataNode::has_visible_block(BlockId block) const {
  return static_index_.count(block) != 0 || dynamic_.count(block) != 0;
}

bool DataNode::has_static_block(BlockId block) const {
  return static_index_.count(block) != 0;
}

bool DataNode::has_dynamic_block(BlockId block) const {
  return dynamic_.count(block) != 0;
}

bool DataNode::has_any_copy(BlockId block) const {
  return static_index_.count(block) != 0 || dynamic_.count(block) != 0 ||
         marked_.count(block) != 0;
}

DataNode::Report DataNode::drain_report() {
  Report report;
  if (pending_added_.empty() && pending_removed_.empty()) return report;
  // Cancel out blocks that were both added and removed since the last
  // heartbeat: the name node never needs to learn about them.
  std::unordered_set<BlockId> removed(pending_removed_.begin(),
                                      pending_removed_.end());
  for (BlockId b : pending_added_) {
    if (removed.count(b)) {
      removed.erase(b);
    } else {
      report.added.push_back(b);
    }
  }
  report.removed.assign(removed.begin(), removed.end());
  std::sort(report.removed.begin(), report.removed.end());
  pending_added_.clear();
  pending_removed_.clear();
  return report;
}

double DataNode::sample_disk_mbps() {
  return net::sample_disk_mbps(disk_, rng_);
}

SimDuration DataNode::read_duration(Bytes bytes) {
  if (bytes < 0) throw std::invalid_argument("DataNode: negative bytes");
  const double mbps = sample_disk_mbps();
  const double seconds =
      static_cast<double>(bytes) / mb_per_sec(mbps);
  return from_seconds(seconds);
}

}  // namespace dare::storage
