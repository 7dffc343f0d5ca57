#include "sched/locality_index.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/invariant.h"

namespace dare::sched {

bool CandidateMap::erase(std::uint32_t key, std::uint32_t map_index) {
  if (size_ == 0) return false;
  const std::size_t mask = capacity() - 1;
  std::size_t i = home(key);
  while (entries_[i].key != key || entries_[i].map_index != map_index) {
    if (entries_[i].key == kEmptyKey) return false;
    i = (i + 1) & mask;
  }
  erase_at(i);
  return true;
}

std::size_t CandidateMap::erase_map(std::uint32_t map_index) {
  std::size_t erased = 0;
  // One forward pass. erase_at refills the hole from later slots of the
  // same chain, so the slot is examined again before the pass moves on. An
  // entry the pass has not reached yet only ever moves back as far as the
  // hole, never behind it; entries that wrapped past the last slot were
  // examined at the start of the pass.
  for (std::size_t i = 0; i < capacity();) {
    if (entries_[i].key != kEmptyKey && entries_[i].map_index == map_index) {
      erase_at(i);
      ++erased;
    } else {
      ++i;
    }
  }
  return erased;
}

void CandidateMap::erase_at(std::size_t hole) {
  const std::size_t mask = capacity() - 1;
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
}

void CandidateMap::reserve(std::size_t entries) {
  if (entries * 2 <= capacity()) return;
  std::size_t capacity = entries_ ? this->capacity() : 8;
  while (capacity < entries * 2) capacity *= 2;
  rehash(capacity);
}

void CandidateMap::rehash(std::size_t capacity) {
  const std::size_t old_capacity = this->capacity();
  const std::unique_ptr<Entry[]> old = std::move(entries_);
  entries_ = std::make_unique<Entry[]>(capacity);
  shift_ = 64;
  for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
  for (std::size_t i = 0; i < old_capacity; ++i) {
    if (old[i].key != kEmptyKey) place(old[i]);
  }
}

namespace {

/// Sorted map indices under `key` whose map is watched.
std::vector<std::uint32_t> sorted_candidates(
    const LocalityIndex::JobState& state, const CandidateMap& candidates,
    std::uint32_t key) {
  std::vector<std::uint32_t> out;
  candidates.for_each(key, [&](std::uint32_t mi) {
    if (state.watched.test(mi)) out.push_back(mi);
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

LocalityIndex::LocalityIndex(std::size_t num_nodes,
                             std::vector<RackId> node_rack,
                             std::size_t num_racks, Locations locations)
    : num_nodes_(num_nodes),
      num_racks_(num_racks),
      node_rack_(std::move(node_rack)),
      locations_(std::move(locations)),
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
  if (!locations_) {
    throw std::invalid_argument("LocalityIndex: null locations source");
  }
}

std::size_t LocalityIndex::rack_replicas(BlockId block, RackId rack) const {
  std::size_t count = 0;
  for (NodeId n : locations_(block)) {
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

void LocalityIndex::reserve(CandidateMap& candidates, std::size_t entries) {
  const std::size_t capacity = candidates.capacity();
  candidates.reserve(entries);
  if (candidates.capacity() != capacity) ++work_.candidate_allocations;
}

void LocalityIndex::add_candidate(CandidateMap& candidates, std::uint32_t key,
                                  std::uint32_t map_index) {
  const std::size_t capacity = candidates.capacity();
  candidates.insert(key, map_index);
  ++work_.candidate_inserts;
  if (candidates.capacity() != capacity) ++work_.candidate_allocations;
}

void LocalityIndex::drop_candidate(CandidateMap& candidates, std::uint32_t key,
                                   std::uint32_t map_index) {
  const bool erased = candidates.erase(key, map_index);
  DARE_INVARIANT(erased,
                 "LocalityIndex: candidate to drop is not indexed (key " +
                     std::to_string(key) + ", map " +
                     std::to_string(map_index) + ")");
  ++work_.candidate_erases;
}

void LocalityIndex::replica_added(BlockId block, NodeId node) {
  if (node < 0 || static_cast<std::size_t>(node) >= num_nodes_) {
    throw std::out_of_range("LocalityIndex: bad node id");
  }
  const auto b = static_cast<std::size_t>(block);
  if (b >= watchers_.size() || watchers_[b].empty()) return;
  const std::vector<Watcher>& watchers = watchers_[b];
  const RackId rack = node_rack_[static_cast<std::size_t>(node)];
  const bool first_in_rack = rack_replicas(block, rack) == 1;
  ++node_epoch_[static_cast<std::size_t>(node)];
  if (first_in_rack) ++rack_epoch_[static_cast<std::size_t>(rack)];
  work_.watcher_visits += watchers.size();
  for (const Watcher& w : watchers) {
    add_candidate(w.state->by_node, static_cast<std::uint32_t>(node),
                  w.map_index);
    if (first_in_rack) {
      add_candidate(w.state->by_rack, static_cast<std::uint32_t>(rack),
                    w.map_index);
    }
  }
}

void LocalityIndex::replica_removed(BlockId block, NodeId node) {
  const auto b = static_cast<std::size_t>(block);
  if (b >= watchers_.size() || watchers_[b].empty()) return;
  const std::vector<Watcher>& watchers = watchers_[b];
  const RackId rack = node_rack_[static_cast<std::size_t>(node)];
  const bool last_in_rack = rack_replicas(block, rack) == 0;
  work_.watcher_visits += watchers.size();
  for (const Watcher& w : watchers) {
    drop_candidate(w.state->by_node, static_cast<std::uint32_t>(node),
                   w.map_index);
    if (last_in_rack) {
      drop_candidate(w.state->by_rack, static_cast<std::uint32_t>(rack),
                     w.map_index);
    }
  }
}

void LocalityIndex::index_map(JobState& state, std::uint32_t map_index,
                              BlockId block) {
  state.watched.set(map_index, true);
  const auto b = static_cast<std::size_t>(block);
  if (b >= watchers_.size()) watchers_.resize(b + 1);
  watchers_[b].push_back(Watcher{&state, map_index});
  const std::vector<NodeId>& holders = locations_(block);
  for (NodeId n : holders) {
    add_candidate(state.by_node, static_cast<std::uint32_t>(n), map_index);
    ++node_epoch_[static_cast<std::size_t>(n)];
  }
  // One rack-candidate entry per distinct rack holding a replica.
  for_each_distinct_rack(holders, [&](RackId rack) {
    add_candidate(state.by_rack, static_cast<std::uint32_t>(rack), map_index);
    ++rack_epoch_[static_cast<std::size_t>(rack)];
  });
}

void LocalityIndex::admit_job(JobState& state,
                              const std::vector<MapTaskSpec>& maps) {
  // Size each table for every entry the watches below insert, so each is
  // allocated once instead of doubling its way there.
  std::size_t node_entries = 0;
  std::size_t rack_entries = 0;
  for (const MapTaskSpec& map : maps) {
    const std::vector<NodeId>& holders = locations_(map.block);
    node_entries += holders.size();
    for_each_distinct_rack(holders, [&](RackId) { ++rack_entries; });
  }
  reserve(state.by_node, node_entries);
  reserve(state.by_rack, rack_entries);
  state.watched.resize(maps.size());
  for (std::size_t i = 0; i < maps.size(); ++i) {
    index_map(state, static_cast<std::uint32_t>(i), maps[i].block);
  }
}

void LocalityIndex::watch_map(JobState& state, std::size_t map_index,
                              BlockId block) {
  const auto mi = static_cast<std::uint32_t>(map_index);
  state.watched.resize(map_index + 1);
  DARE_INVARIANT(!state.watched.test(mi),
                 "LocalityIndex: watch of a watched map (map " +
                     std::to_string(mi) + ", block " + std::to_string(block) +
                     ")");
  // The entries the map left at its launch describe its block's replicas
  // then, not now.
  work_.candidate_erases +=
      state.by_node.erase_map(mi) + state.by_rack.erase_map(mi);
  index_map(state, mi, block);
}

void LocalityIndex::unwatch_map(JobState& state, std::size_t map_index,
                                BlockId block) {
  const auto mi = static_cast<std::uint32_t>(map_index);
  const auto b = static_cast<std::size_t>(block);
  DARE_INVARIANT(b < watchers_.size(),
                 "LocalityIndex: unwatch of an unwatched block " +
                     std::to_string(block));
  auto& watchers = watchers_[b];
  const auto pos =
      std::find_if(watchers.begin(), watchers.end(), [&](const Watcher& w) {
        return w.state == &state && w.map_index == mi;
      });
  DARE_INVARIANT(pos != watchers.end(),
                 "LocalityIndex: unwatch of an unwatched map (map " +
                     std::to_string(mi) + ", block " + std::to_string(block) +
                     ")");
  state.watched.set(mi, false);
  *pos = watchers.back();
  watchers.pop_back();
}

std::vector<std::uint32_t> LocalityIndex::node_candidates(
    const JobState& state, NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= num_nodes_) {
    throw std::out_of_range("LocalityIndex: bad node id");
  }
  return sorted_candidates(state, state.by_node,
                           static_cast<std::uint32_t>(node));
}

std::vector<std::uint32_t> LocalityIndex::rack_candidates(
    const JobState& state, NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= num_nodes_) {
    throw std::out_of_range("LocalityIndex: bad node id");
  }
  return sorted_candidates(state, state.by_rack,
                           static_cast<std::uint32_t>(rack_of(node)));
}

}  // namespace dare::sched
