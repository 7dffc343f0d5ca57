#include "storage/placement.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/invariant.h"

namespace dare::storage {

namespace {

/// Audits the caller's live count (O(nodes), so invariant builds only).
void audit_live(const std::vector<bool>& alive, std::size_t live) {
  DARE_INVARIANT(
      static_cast<std::size_t>(std::count(alive.begin(), alive.end(), true)) ==
          live,
      "placement: live count " + std::to_string(live) +
          " disagrees with the alive vector");
}

/// Draw a uniformly random live node not already in `chosen`.
/// Precondition: such a node exists.
NodeId draw_fresh_live(const std::vector<bool>& alive,
                       const std::vector<NodeId>& chosen, Rng& rng) {
  for (;;) {
    const auto cand = static_cast<NodeId>(rng.uniform_int(alive.size()));
    if (!alive[static_cast<std::size_t>(cand)]) continue;
    if (std::find(chosen.begin(), chosen.end(), cand) != chosen.end()) {
      continue;
    }
    return cand;
  }
}

}  // namespace

std::vector<NodeId> RandomPlacement::place(int replication,
                                           const std::vector<bool>& alive,
                                           std::size_t live, Rng& rng) {
  if (alive.size() != nodes_) {
    throw std::invalid_argument("RandomPlacement: alive vector size mismatch");
  }
  audit_live(alive, live);
  if (live == 0) {
    throw std::logic_error("RandomPlacement: no live nodes");
  }
  const auto want = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(replication, 1)), live);
  std::vector<NodeId> chosen;
  chosen.reserve(want);
  while (chosen.size() < want) {
    chosen.push_back(draw_fresh_live(alive, chosen, rng));
  }
  return chosen;
}

std::vector<NodeId> RackAwarePlacement::place(int replication,
                                              const std::vector<bool>& alive,
                                              std::size_t live, Rng& rng) {
  if (alive.size() != topology_->node_count()) {
    throw std::invalid_argument(
        "RackAwarePlacement: alive vector size mismatch");
  }
  audit_live(alive, live);
  if (live == 0) {
    throw std::logic_error("RackAwarePlacement: no live nodes");
  }
  const auto want = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(replication, 1)), live);
  std::vector<NodeId> chosen;
  chosen.reserve(want);

  // First replica: anywhere.
  chosen.push_back(draw_fresh_live(alive, chosen, rng));

  // Second replica: prefer a different rack (bounded random search — with a
  // rack-skewed allocation an off-rack live node may not exist).
  if (chosen.size() < want) {
    NodeId second = kInvalidNode;
    for (int attempt = 0; attempt < 32; ++attempt) {
      const NodeId cand = draw_fresh_live(alive, chosen, rng);
      if (!topology_->same_rack(chosen[0], cand)) {
        second = cand;
        break;
      }
    }
    if (second == kInvalidNode) second = draw_fresh_live(alive, chosen, rng);
    chosen.push_back(second);
  }

  // Third replica: prefer the first replica's rack (the write pipeline's
  // cheap local hop in real HDFS).
  if (chosen.size() < want) {
    NodeId third = kInvalidNode;
    for (int attempt = 0; attempt < 32; ++attempt) {
      const NodeId cand = draw_fresh_live(alive, chosen, rng);
      if (topology_->same_rack(chosen[0], cand)) {
        third = cand;
        break;
      }
    }
    if (third == kInvalidNode) third = draw_fresh_live(alive, chosen, rng);
    chosen.push_back(third);
  }

  // Any further replicas: random.
  while (chosen.size() < want) {
    chosen.push_back(draw_fresh_live(alive, chosen, rng));
  }
  return chosen;
}

std::unique_ptr<PlacementPolicy> default_placement(
    std::size_t nodes, const net::Topology* topology) {
  if (topology != nullptr && topology->rack_count() > 1) {
    return std::make_unique<RackAwarePlacement>(*topology);
  }
  return std::make_unique<RandomPlacement>(nodes);
}

}  // namespace dare::storage
