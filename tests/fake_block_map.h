// A name-node stand-in for tests that drive a LocalityIndex directly: each
// block's holder list, served as the index's locations source. add() and
// remove() change the list first and then notify the index, as NameNode
// does.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "sched/locality_index.h"

namespace dare::sched {

class FakeBlockMap {
 public:
  FakeBlockMap() = default;
  // The source hands the index this object's address.
  FakeBlockMap(const FakeBlockMap&) = delete;
  FakeBlockMap& operator=(const FakeBlockMap&) = delete;

  /// The locations source for a LocalityIndex that must not outlive this
  /// map. A block never added has no holders.
  LocalityIndex::Locations source() {
    return [this](BlockId block) -> const std::vector<NodeId>& {
      return holders_[block];
    };
  }

  /// `node` gains a replica of `block`; `node` must not hold one.
  void add(LocalityIndex& index, BlockId block, NodeId node) {
    holders_[block].push_back(node);
    index.replica_added(block, node);
  }

  /// `node` loses its replica of `block`; `node` must hold one.
  void remove(LocalityIndex& index, BlockId block, NodeId node) {
    auto& nodes = holders_[block];
    nodes.erase(std::find(nodes.begin(), nodes.end(), node));
    index.replica_removed(block, node);
  }

 private:
  std::unordered_map<BlockId, std::vector<NodeId>> holders_;
};

}  // namespace dare::sched
