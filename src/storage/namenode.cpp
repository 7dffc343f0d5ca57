#include "storage/namenode.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/invariant.h"
#include "obs/trace_collector.h"

namespace dare::storage {

namespace {

/// The slot of `id` in a table of `size` records (ids are dense, so an id
/// is its slot); throws std::out_of_range(`what`) for a negative or
/// unknown id.
std::size_t slot(std::int64_t id, std::size_t size,
                 const char* what = "NameNode: unknown block") {
  if (id < 0 || static_cast<std::size_t>(id) >= size) {
    throw std::out_of_range(what);
  }
  return static_cast<std::size_t>(id);
}

}  // namespace

NameNode::NameNode(std::size_t data_nodes, const net::Topology* topology,
                   Rng& rng, std::unique_ptr<PlacementPolicy> placement)
    : data_nodes_(data_nodes),
      topology_(topology),
      rng_(rng.fork()),
      placement_(placement ? std::move(placement)
                           : default_placement(data_nodes, topology)),
      node_alive_(data_nodes, true),
      live_nodes_(data_nodes),
      last_heartbeat_(data_nodes, 0) {
  if (data_nodes_ == 0) {
    throw std::invalid_argument("NameNode: need at least one data node");
  }
}

FileId NameNode::create_file(const std::string& name, std::size_t num_blocks,
                             Bytes block_size, int replication, SimTime now) {
  if (num_blocks == 0) {
    throw std::invalid_argument("NameNode: file needs at least one block");
  }
  if (block_size <= 0) {
    throw std::invalid_argument("NameNode: block size must be positive");
  }
  FileInfo info;
  info.id = static_cast<FileId>(files_.size());
  info.name = name;
  info.block_size = block_size;
  info.replication = replication;
  info.created = now;
  info.blocks.reserve(num_blocks);
  for (std::size_t i = 0; i < num_blocks; ++i) {
    const auto bid = static_cast<BlockId>(blocks_.size());
    auto placement =
        placement_->place(replication, node_alive_, live_nodes_, rng_);
    // Placement contract: distinct live nodes only.
    for (std::size_t a = 0; a < placement.size(); ++a) {
      DARE_INVARIANT(placement[a] >= 0 &&
                         static_cast<std::size_t>(placement[a]) < data_nodes_,
                     "NameNode: placement chose an out-of-range node");
      DARE_INVARIANT(node_alive_[static_cast<std::size_t>(placement[a])],
                     "NameNode: placement chose a dead node");
      for (std::size_t b = a + 1; b < placement.size(); ++b) {
        DARE_INVARIANT(placement[a] != placement[b],
                       "NameNode: placement repeated node " +
                           std::to_string(placement[a]) + " for block " +
                           std::to_string(bid));
      }
    }
    blocks_.push_back(BlockMeta{bid, info.id, block_size});
    // One node at a time: each notification sees exactly the placements
    // notified so far.
    auto& locs = locations_.emplace_back();
    locs.reserve(placement.size());
    for (NodeId n : placement) {
      locs.push_back(n);
      notify_replica(bid, n, /*added=*/true);
    }
    static_locations_.push_back(std::move(placement));
    info.blocks.push_back(bid);
  }
  files_.push_back(std::move(info));
  return files_.back().id;
}

const FileInfo& NameNode::file(FileId id) const {
  return files_[slot(id, files_.size(), "NameNode: unknown file")];
}

const BlockMeta& NameNode::block(BlockId id) const {
  return blocks_[slot(id, blocks_.size())];
}

const std::vector<NodeId>& NameNode::locations(BlockId block) const {
  return locations_[slot(block, locations_.size())];
}

const std::vector<NodeId>& NameNode::static_locations(BlockId block) const {
  return static_locations_[slot(block, static_locations_.size())];
}

std::size_t NameNode::factor(std::size_t b) const {
  const FileInfo& info = files_[static_cast<std::size_t>(blocks_[b].file)];
  return static_cast<std::size_t>(std::max(info.replication, 1));
}

void NameNode::report_dynamic_added(NodeId node,
                                    const std::vector<BlockId>& blocks) {
  for (BlockId b : blocks) {
    auto& locs = locations_[slot(b, locations_.size(),
                                 "NameNode: dynamic add for unknown block")];
    if (std::find(locs.begin(), locs.end(), node) == locs.end()) {
      locs.push_back(node);
      ++dynamic_replicas_;
      DARE_INVARIANT(
          std::count(locs.begin(), locs.end(), node) == 1,
          "NameNode: duplicate location entry after dynamic add of block " +
              std::to_string(b));
      notify_replica(b, node, /*added=*/true);
    }
  }
}

void NameNode::report_dynamic_removed(NodeId node,
                                      const std::vector<BlockId>& blocks) {
  for (BlockId b : blocks) {
    const std::size_t i = slot(b, locations_.size(),
                               "NameNode: dynamic remove for unknown block");
    auto& locs = locations_[i];
    const auto pos = std::find(locs.begin(), locs.end(), node);
    if (pos == locs.end()) continue;
    // Never drop a static placement: removal reports only concern dynamic
    // replicas, and a node is a static holder iff it is in static_locations_.
    const auto& statics = static_locations_[i];
    if (std::find(statics.begin(), statics.end(), node) != statics.end()) {
      continue;
    }
    DARE_INVARIANT(dynamic_replicas_ > 0,
                   "NameNode: dynamic replica counter underflow removing "
                   "block " + std::to_string(b));
    locs.erase(pos);
    --dynamic_replicas_;
    notify_replica(b, node, /*added=*/false);
  }
}

std::size_t NameNode::replica_count(BlockId block) const {
  return locations(block).size();
}

std::vector<FileId> NameNode::all_files() const {
  std::vector<FileId> ids(files_.size());
  std::iota(ids.begin(), ids.end(), FileId{0});
  return ids;
}

bool NameNode::is_node_alive(NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= node_alive_.size()) {
    throw std::out_of_range("NameNode: bad node id");
  }
  return node_alive_[static_cast<std::size_t>(node)];
}

void NameNode::heartbeat_received(NodeId node, SimTime now) {
  if (node < 0 || static_cast<std::size_t>(node) >= node_alive_.size()) {
    throw std::out_of_range("NameNode: bad node id");
  }
  DARE_INVARIANT(node_alive_[static_cast<std::size_t>(node)],
                 "NameNode: heartbeat from a node declared dead (" +
                     std::to_string(node) + ") without a rejoin");
  last_heartbeat_[static_cast<std::size_t>(node)] = now;
  if (tracer_ != nullptr) tracer_->heartbeat(node);
}

void NameNode::heartbeat_skipped(NodeId node, SimTime when) {
  auto& stamp = last_heartbeat_.at(static_cast<std::size_t>(node));
  if (when > stamp) stamp = when;
}

std::vector<NodeId> NameNode::overdue_nodes(SimTime now,
                                            SimDuration timeout) const {
  std::vector<NodeId> overdue;
  for (std::size_t n = 0; n < node_alive_.size(); ++n) {
    if (!node_alive_[n]) continue;
    if (now - last_heartbeat_[n] > timeout) {
      overdue.push_back(static_cast<NodeId>(n));
    }
  }
  return overdue;
}

std::vector<BlockId> NameNode::node_failed(NodeId node) {
  if (node < 0 || static_cast<std::size_t>(node) >= node_alive_.size()) {
    throw std::out_of_range("NameNode: bad node id");
  }
  // Idempotent: a node can be reported dead only once per life (a scripted
  // kill racing a stochastic one, or a repeated declaration, is a no-op).
  if (!node_alive_[static_cast<std::size_t>(node)]) return {};
  node_alive_[static_cast<std::size_t>(node)] = false;
  --live_nodes_;
  if (tracer_ != nullptr) tracer_->node_declared_dead(node);

  // Block-id order: the deltas and the under-replicated list follow it.
  std::vector<BlockId> under_replicated;
  for (std::size_t b = 0; b < locations_.size(); ++b) {
    auto& locs = locations_[b];
    const auto pos = std::find(locs.begin(), locs.end(), node);
    if (pos == locs.end()) continue;
    locs.erase(pos);
    const auto bid = static_cast<BlockId>(b);
    notify_replica(bid, node, /*added=*/false);
    auto& statics = static_locations_[b];
    const auto spos = std::find(statics.begin(), statics.end(), node);
    if (spos != statics.end()) {
      statics.erase(spos);
    } else {
      DARE_INVARIANT(dynamic_replicas_ > 0,
                     "NameNode: dynamic replica counter underflow on node "
                     "failure");
      --dynamic_replicas_;  // it was a DARE replica
    }
    // Under-replicated relative to the file's configured factor (clamped to
    // what the surviving cluster can hold).
    if (statics.size() < std::min(factor(b), live_nodes_)) {
      under_replicated.push_back(bid);
    }
  }
  return under_replicated;
}

bool NameNode::add_repair_replica(BlockId block, NodeId node) {
  if (!is_node_alive(node)) {
    throw std::logic_error("NameNode: repair replica on a dead node");
  }
  const std::size_t b = slot(block, locations_.size());
  auto& locs = locations_[b];
  if (std::find(locs.begin(), locs.end(), node) != locs.end()) return false;
  locs.push_back(node);
  static_locations_[b].push_back(node);
  notify_replica(block, node, /*added=*/true);
  if (tracer_ != nullptr) tracer_->block_repaired(node, block);
  return true;
}

NameNode::RejoinReport NameNode::node_rejoined(
    NodeId node, const std::vector<BlockId>& static_blocks,
    const std::vector<BlockId>& dynamic_blocks) {
  if (node < 0 || static_cast<std::size_t>(node) >= node_alive_.size()) {
    throw std::out_of_range("NameNode: bad node id");
  }
  if (node_alive_[static_cast<std::size_t>(node)]) {
    throw std::logic_error("NameNode: rejoin of a node never declared dead");
  }
  node_alive_[static_cast<std::size_t>(node)] = true;
  ++live_nodes_;
  if (tracer_ != nullptr) {
    tracer_->node_rejoined(node, /*full_reregistration=*/true);
  }

  RejoinReport report;
  for (BlockId b : static_blocks) {
    const std::size_t i = slot(b, locations_.size());
    auto& locs = locations_[i];
    auto& statics = static_locations_[i];
    if (std::find(statics.begin(), statics.end(), node) != statics.end()) {
      continue;  // already authoritative here (repeated report)
    }
    if (statics.size() < factor(i)) {
      // The stale copy is still needed: re-adopt it as authoritative. This
      // can resurrect a block whose every other replica was lost.
      statics.push_back(node);
      if (std::find(locs.begin(), locs.end(), node) == locs.end()) {
        locs.push_back(node);
        notify_replica(b, node, /*added=*/true);
      }
      ++report.adopted_static;
    } else {
      // Re-replication won the race while the node was down; the block is
      // already back at factor, so the stale copy is surplus.
      report.pruned_static.push_back(b);
    }
  }
  for (BlockId b : dynamic_blocks) {
    auto& locs = locations_[slot(b, locations_.size())];
    if (std::find(locs.begin(), locs.end(), node) == locs.end()) {
      // DARE replicas are over-replication by design: always re-adopt (the
      // policy's budget still bounds them on the node).
      locs.push_back(node);
      ++dynamic_replicas_;
      ++report.adopted_dynamic;
      notify_replica(b, node, /*added=*/true);
    }
  }
  return report;
}

bool NameNode::is_under_replicated(BlockId block) const {
  const std::size_t b = slot(block, static_locations_.size());
  return static_locations_[b].size() < std::min(factor(b), live_nodes_);
}

NameNode::BadBlockResult NameNode::report_bad_block(BlockId block,
                                                    NodeId node) {
  const std::size_t b = slot(block, locations_.size(),
                             "NameNode: bad-block report for unknown block");
  auto& locs = locations_[b];
  const auto pos = std::find(locs.begin(), locs.end(), node);
  if (pos == locs.end()) {
    // The location is already gone (node died, replica evicted, or a repeat
    // report) — nothing to quarantine.
    return BadBlockResult::kStaleReport;
  }
  if (locs.size() == 1) {
    // Last-replica protection: never delete the only remaining copy, corrupt
    // or not. The caller surfaces this as a data-loss event.
    return BadBlockResult::kLastReplica;
  }
  locs.erase(pos);
  auto& statics = static_locations_[b];
  const auto spos = std::find(statics.begin(), statics.end(), node);
  if (spos != statics.end()) {
    statics.erase(spos);
  } else {
    DARE_INVARIANT(dynamic_replicas_ > 0,
                   "NameNode: dynamic replica counter underflow quarantining "
                   "block " + std::to_string(block));
    --dynamic_replicas_;  // the corrupt copy was a DARE replica
  }
  notify_replica(block, node, /*added=*/false);
  if (tracer_ != nullptr) tracer_->replica_quarantined(node, block);
  return BadBlockResult::kQuarantined;
}

std::size_t NameNode::lost_block_count() const {
  std::size_t lost = 0;
  for (const auto& locs : locations_) {
    if (locs.empty()) ++lost;
  }
  return lost;
}

}  // namespace dare::storage
