// Scarlett-style epoch-based proactive replication baseline (comparator).
//
// Scarlett (Ananthanarayanan et al., EuroSys'11) is the closest related
// system: a *centralized, offline* scheme that periodically recomputes a
// replication factor per file from the previous epoch's observed accesses
// and proactively creates budget-limited replicas spread across the cluster.
// The paper positions DARE as the reactive alternative that adapts at
// smaller time scales and incurs no explicit replication traffic.
//
// This module implements the epoch logic so the ablation bench can compare
// the two designs inside the same simulator. Unlike DARE, epoch replication
// *does* consume network bandwidth (replicas are pushed over the wire); the
// cluster glue charges that traffic to the network model.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "storage/block.h"

namespace dare::core {

struct ScarlettParams {
  /// Recomputation period.
  SimDuration epoch = from_seconds(300);
  /// Cluster-wide extra-storage budget as a fraction of static bytes.
  double budget_fraction = 0.2;
  /// A file observed with `c` concurrent-ish accesses in the last epoch gets
  /// target replication min(base + ceil(c * accesses_per_replica_inv), cap).
  double accesses_per_replica = 4.0;
  int max_replication = 10;
};

/// Per-epoch replication decision for one file.
struct ReplicationOrder {
  FileId file = kInvalidFile;
  int current_replication = 0;
  int target_replication = 0;
};

/// Centralized epoch planner: feed it accesses, ask it each epoch which
/// files deserve more replicas. Placement/transfer is the caller's job
/// (the cluster glue), keeping this module free of simulator dependencies.
class ScarlettPlanner {
 public:
  explicit ScarlettPlanner(const ScarlettParams& params);

  /// Record one access of `file`, a name-node file id (dense, from 0);
  /// called for every scheduled map task.
  void record_access(FileId file);

  /// Compute this epoch's orders, most-accessed files first, respecting the
  /// cluster-wide budget: `budget_bytes` minus bytes already spent on extra
  /// replicas. `file_bytes` and `current_replication`, indexed by FileId,
  /// supply metadata; an accessed file past either is skipped. Resets the
  /// access window afterwards.
  std::vector<ReplicationOrder> plan_epoch(
      Bytes budget_remaining, const std::vector<Bytes>& file_bytes,
      const std::vector<int>& current_replication);

  const ScarlettParams& params() const { return params_; }

  /// Accesses observed in the current (un-planned) window.
  std::uint64_t window_accesses() const;

 private:
  ScarlettParams params_;
  /// Accesses per FileId in the current window, grown by record_access.
  std::vector<std::uint64_t> window_;
};

}  // namespace dare::core
