#include "sched/locality_index.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/invariant.h"

namespace dare::sched {

bool CandidateMap::erase(std::uint32_t key, std::uint32_t map_index) {
  if (size_ == 0) return false;
  const std::size_t mask = entries_.size() - 1;
  std::size_t hole = home(key);
  while (entries_[hole].key != key || entries_[hole].map_index != map_index) {
    if (entries_[hole].key == kEmptyKey) return false;
    hole = (hole + 1) & mask;
  }
  // Backward shift: move each later entry of the chain into the hole unless
  // that would put it before its home slot, so no chain is ever broken.
  for (std::size_t i = (hole + 1) & mask; entries_[i].key != kEmptyKey;
       i = (i + 1) & mask) {
    if (((i - home(entries_[i].key)) & mask) >= ((i - hole) & mask)) {
      entries_[hole] = entries_[i];
      hole = i;
    }
  }
  entries_[hole] = Entry{};
  --size_;
  return true;
}

void CandidateMap::grow() {
  std::vector<Entry> old = std::move(entries_);
  const std::size_t capacity = old.empty() ? 8 : old.size() * 2;
  entries_.assign(capacity, Entry{});
  shift_ = 64;
  for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
  for (const Entry& e : old) {
    if (e.key != kEmptyKey) place(e);
  }
}

namespace {

std::vector<std::uint32_t> sorted_candidates(const CandidateMap& candidates,
                                             std::uint32_t key) {
  std::vector<std::uint32_t> out;
  candidates.for_each(key, [&](std::uint32_t mi) { out.push_back(mi); });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

LocalityIndex::LocalityIndex(std::size_t num_nodes,
                             std::vector<RackId> node_rack,
                             std::size_t num_racks)
    : num_nodes_(num_nodes),
      num_racks_(num_racks),
      node_rack_(std::move(node_rack)),
      rack_stamp_(num_racks, 0),
      node_epoch_(num_nodes, 0),
      rack_epoch_(num_racks, 0) {
  if (num_nodes_ == 0 || num_racks_ == 0) {
    throw std::invalid_argument("LocalityIndex: need >= 1 node and rack");
  }
  if (node_rack_.size() != num_nodes_) {
    throw std::invalid_argument("LocalityIndex: node_rack size mismatch");
  }
  for (RackId r : node_rack_) {
    if (r < 0 || static_cast<std::size_t>(r) >= num_racks_) {
      throw std::invalid_argument("LocalityIndex: rack id out of range");
    }
  }
}

std::size_t LocalityIndex::rack_replicas(BlockId block, RackId rack) const {
  const auto it = block_nodes_.find(block);
  if (it == block_nodes_.end()) return 0;
  std::size_t count = 0;
  for (NodeId n : it->second) {
    if (node_rack_[static_cast<std::size_t>(n)] == rack) ++count;
  }
  return count;
}

template <typename Fn>
void LocalityIndex::for_each_distinct_rack(const std::vector<NodeId>& nodes,
                                           Fn&& fn) {
  if (++stamp_ == 0) {  // wrapped: no stale stamp may equal the new one
    std::fill(rack_stamp_.begin(), rack_stamp_.end(), 0);
    stamp_ = 1;
  }
  for (NodeId n : nodes) {
    const RackId rack = node_rack_[static_cast<std::size_t>(n)];
    std::uint32_t& seen = rack_stamp_[static_cast<std::size_t>(rack)];
    if (seen != stamp_) {
      seen = stamp_;
      fn(rack);
    }
  }
}

void LocalityIndex::drop_candidate(CandidateMap& candidates, std::uint32_t key,
                                   std::uint32_t map_index) {
  const bool erased = candidates.erase(key, map_index);
  DARE_INVARIANT(erased,
                 "LocalityIndex: candidate to drop is not indexed (key " +
                     std::to_string(key) + ", map " +
                     std::to_string(map_index) + ")");
}

void LocalityIndex::replica_added(BlockId block, NodeId node) {
  if (node < 0 || static_cast<std::size_t>(node) >= num_nodes_) {
    throw std::out_of_range("LocalityIndex: bad node id");
  }
  auto& nodes = block_nodes_[block];
  DARE_INVARIANT(std::find(nodes.begin(), nodes.end(), node) == nodes.end(),
                 "LocalityIndex: duplicate replica delta for block " +
                     std::to_string(block));
  nodes.push_back(node);
  const RackId rack = node_rack_[static_cast<std::size_t>(node)];
  const bool first_in_rack = rack_replicas(block, rack) == 1;

  const auto wit = watchers_.find(block);
  if (wit == watchers_.end()) return;
  ++node_epoch_[static_cast<std::size_t>(node)];
  if (first_in_rack) ++rack_epoch_[static_cast<std::size_t>(rack)];
  for (const Watcher& w : wit->second) {
    w.state->by_node.insert(static_cast<std::uint32_t>(node), w.map_index);
    if (first_in_rack) {
      w.state->by_rack.insert(static_cast<std::uint32_t>(rack), w.map_index);
    }
  }
}

void LocalityIndex::replica_removed(BlockId block, NodeId node) {
  const auto it = block_nodes_.find(block);
  DARE_INVARIANT(it != block_nodes_.end(),
                 "LocalityIndex: removal delta for unmirrored block " +
                     std::to_string(block));
  auto& nodes = it->second;
  const auto pos = std::find(nodes.begin(), nodes.end(), node);
  DARE_INVARIANT(pos != nodes.end(),
                 "LocalityIndex: removal delta for absent replica of block " +
                     std::to_string(block));
  nodes.erase(pos);
  const RackId rack = node_rack_[static_cast<std::size_t>(node)];
  const bool last_in_rack = rack_replicas(block, rack) == 0;

  const auto wit = watchers_.find(block);
  if (wit == watchers_.end()) return;
  for (const Watcher& w : wit->second) {
    drop_candidate(w.state->by_node, static_cast<std::uint32_t>(node),
                   w.map_index);
    if (last_in_rack) {
      drop_candidate(w.state->by_rack, static_cast<std::uint32_t>(rack),
                     w.map_index);
    }
  }
}

void LocalityIndex::watch_map(JobId job, std::size_t map_index,
                              BlockId block) {
  const auto mi = static_cast<std::uint32_t>(map_index);
  JobState& state = jobs_[job];
  watchers_[block].push_back(Watcher{job, mi, &state});
  const auto it = block_nodes_.find(block);
  if (it == block_nodes_.end()) return;  // block has no live replica
  for (NodeId n : it->second) {
    state.by_node.insert(static_cast<std::uint32_t>(n), mi);
    ++node_epoch_[static_cast<std::size_t>(n)];
  }
  // One rack-candidate entry per distinct rack holding a replica.
  for_each_distinct_rack(it->second, [&](RackId rack) {
    state.by_rack.insert(static_cast<std::uint32_t>(rack), mi);
    ++rack_epoch_[static_cast<std::size_t>(rack)];
  });
}

void LocalityIndex::unwatch_map(JobId job, std::size_t map_index,
                                BlockId block) {
  const auto mi = static_cast<std::uint32_t>(map_index);
  const auto wit = watchers_.find(block);
  DARE_INVARIANT(wit != watchers_.end(),
                 "LocalityIndex: unwatch of an unwatched block " +
                     std::to_string(block));
  auto& watchers = wit->second;
  const auto pos =
      std::find_if(watchers.begin(), watchers.end(), [&](const Watcher& w) {
        return w.job == job && w.map_index == mi;
      });
  DARE_INVARIANT(pos != watchers.end(),
                 "LocalityIndex: unwatch of an unwatched map (job " +
                     std::to_string(job) + ", map " + std::to_string(mi) +
                     ")");
  JobState& state = *pos->state;
  *pos = watchers.back();
  watchers.pop_back();
  if (watchers.empty()) watchers_.erase(wit);

  const auto bit = block_nodes_.find(block);
  if (bit == block_nodes_.end()) return;
  for (NodeId n : bit->second) {
    drop_candidate(state.by_node, static_cast<std::uint32_t>(n), mi);
  }
  for_each_distinct_rack(bit->second, [&](RackId rack) {
    drop_candidate(state.by_rack, static_cast<std::uint32_t>(rack), mi);
  });
}

void LocalityIndex::job_retired(JobId job) {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return;  // never had candidates
  DARE_INVARIANT(it->second.by_node.size() == 0 &&
                     it->second.by_rack.size() == 0,
                 "LocalityIndex: job " + std::to_string(job) +
                     " retired with live candidates");
  jobs_.erase(it);
}

std::vector<std::uint32_t> LocalityIndex::node_candidates(JobId job,
                                                          NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= num_nodes_) {
    throw std::out_of_range("LocalityIndex: bad node id");
  }
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return {};
  return sorted_candidates(it->second.by_node,
                           static_cast<std::uint32_t>(node));
}

std::vector<std::uint32_t> LocalityIndex::rack_candidates(JobId job,
                                                          NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= num_nodes_) {
    throw std::out_of_range("LocalityIndex: bad node id");
  }
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return {};
  const RackId rack = node_rack_[static_cast<std::size_t>(node)];
  return sorted_candidates(it->second.by_rack,
                           static_cast<std::uint32_t>(rack));
}

std::size_t LocalityIndex::replica_count(BlockId block) const {
  const auto it = block_nodes_.find(block);
  return it == block_nodes_.end() ? 0 : it->second.size();
}

bool LocalityIndex::mirrors_replica(BlockId block, NodeId node) const {
  const auto it = block_nodes_.find(block);
  if (it == block_nodes_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), node) !=
         it->second.end();
}

}  // namespace dare::sched
