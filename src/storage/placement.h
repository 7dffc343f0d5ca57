// Pluggable static block-placement policies for the name node.
//
// HDFS chooses where the initial `replication` copies of each block live;
// the paper's evaluation runs on the default policy (random distinct nodes,
// rack-aware when the cluster spans racks). Factoring placement behind an
// interface lets experiments isolate *placement* effects from *replication*
// effects — e.g. Fig. 11's popularity-uniformity baseline is a property of
// the placement policy alone.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/topology.h"

namespace dare::storage {

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Choose distinct nodes for `replication` copies of one block.
  /// `alive(node)` filters placement targets and `live` is its number of
  /// true entries (the caller keeps it, so no call counts them);
  /// implementations must return between 1 and min(replication, live)
  /// distinct live nodes.
  virtual std::vector<NodeId> place(int replication,
                                    const std::vector<bool>& alive,
                                    std::size_t live, Rng& rng) = 0;

  virtual std::string name() const = 0;
};

/// Uniformly random distinct live nodes; no rack awareness.
class RandomPlacement final : public PlacementPolicy {
 public:
  explicit RandomPlacement(std::size_t nodes) : nodes_(nodes) {}

  std::vector<NodeId> place(int replication, const std::vector<bool>& alive,
                            std::size_t live, Rng& rng) override;
  std::string name() const override { return "random"; }

 private:
  std::size_t nodes_;
};

/// HDFS's default policy, simplified to the simulator's abstractions:
/// first replica on a random node, second on a different rack when the
/// topology has one (availability against rack failure), third back in the
/// first replica's rack (cheap pipeline hop), extras random. Degenerates to
/// RandomPlacement on single-rack topologies.
class RackAwarePlacement final : public PlacementPolicy {
 public:
  /// `topology` must outlive the policy.
  explicit RackAwarePlacement(const net::Topology& topology)
      : topology_(&topology) {}

  std::vector<NodeId> place(int replication, const std::vector<bool>& alive,
                            std::size_t live, Rng& rng) override;
  std::string name() const override { return "rack-aware"; }

 private:
  const net::Topology* topology_;
};

/// Factory used by the name node when no policy is injected.
std::unique_ptr<PlacementPolicy> default_placement(
    std::size_t nodes, const net::Topology* topology);

}  // namespace dare::storage
