// Typed, sim-time-stamped trace events: the structured record every
// instrumented component (cluster, schedulers, replication policies,
// DataNode, NameNode, faults glue) appends to the TraceCollector.
//
// Timestamps are ALWAYS simulation time (integer microseconds) — never a
// wall clock — so a traced run is as deterministic as the run itself and
// two seeded runs export byte-identical traces. Wall-clock cost lives in
// the separate PhaseProfiler, which is excluded from fingerprints.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace dare::obs {

/// Every event kind the simulator can emit. The numeric values are part of
/// the CSV export format; append new kinds at the end, never reorder.
enum class EventKind : std::uint8_t {
  // Task lifecycle (cluster glue).
  kJobSubmitted = 0,   ///< detail = maps, value = reduces
  kMapLaunched,        ///< task = map index, detail = locality tier (0/1/2)
  kMapSpeculated,      ///< backup attempt launched; fields as kMapLaunched
  kMapFinished,        ///< detail = 1 when a speculative attempt won,
                       ///< value = duration (s)
  kMapKilled,          ///< losing attempt cancelled or swept by node loss
  kMapRequeued,        ///< attempt re-queued (node loss / injected failure)
  kReduceLaunched,     ///< task = attempt id
  kReduceFinished,     ///< task = attempt id, value = duration (s)
  kReduceRequeued,     ///< reduce returned to the backlog after node loss
  kJobFinished,        ///< value = turnaround (s)
  kJobFailed,          ///< killed after a task exhausted its attempt budget
  kTaskAttemptFault,   ///< injected (fault-model) attempt failure

  // Replication decisions (per-node policies, remote reads only).
  kReplicaAdopted,     ///< task = block, value = budget occupancy after
  kReplicaSkipped,     ///< task = block, detail = SkipReason, value = occ.
  kReplicaEvicted,     ///< task = victim block, detail = aging passes,
                       ///< value = access count at eviction

  // Storage / membership (DataNode, NameNode, faults glue).
  kDiskReclaim,        ///< lazy tombstone sweep; detail = replicas reclaimed
  kHeartbeat,          ///< DataNode heartbeat processed by the NameNode
  kNodeFailed,         ///< physical failure; detail = FaultKind,
                       ///< value = downtime (s, 0 = permanent)
  kNodeDeclaredDead,   ///< NameNode missed-heartbeat declaration
  kNodeRejoined,       ///< detail = 1 full re-registration, 0 blip
  kBlockRepaired,      ///< task = block re-replicated onto `node`

  // Scheduler decisions.
  kSchedulerDecision,  ///< detail = locality tier chosen,
                       ///< value = delay-scheduling wait (s)
  kDelayWait,          ///< job declined `node` and started its delay clock

  // Data integrity (corruption process, checksum reads, quarantine).
  kReplicaCorrupted,   ///< task = block silently corrupted on `node`
  kChecksumFailed,     ///< task = block whose read on `node` failed verify
  kReplicaQuarantined, ///< task = block dropped from `node`'s location list
  kDataLoss,           ///< task = block with no clean replica left

  // Stragglers & cloning (straggler process, detection, clone lifecycle).
  kNodeDegraded,       ///< degraded-mode onset; detail = 1 rack-correlated,
                       ///< value = compute slowdown factor
  kNodeDegradeEnded,   ///< node recovered nominal speed
  kStragglerDetected,  ///< NameNode flagged `node` slow; value = EWMA ratio
  kStragglerCleared,   ///< backoff expired, node re-admitted on probation
  kCloneLaunched,      ///< proactive clone attempt; fields as kMapLaunched
  kCloneKilled,        ///< clone attempt cancelled (lost the race, swept by
                       ///< node loss, or its job failed)

  // Network faults & prioritized repair (netfault process, repair queue).
  kLinkDegraded,       ///< uplink-degradation onset; detail = rack,
                       ///< value = episode length (s)
  kPartitionStarted,   ///< rack cut off; detail = rack, value = length (s)
  kPartitionHealed,    ///< rack reconnected; detail = rack
  kRepairRetried,      ///< task = block re-enqueued with backoff,
                       ///< detail = retries so far
  kRepairPreempted,    ///< task = bulk block deferred behind the critical
                       ///< class; once per queued entry, at the first
                       ///< tick that preempts it (a retry or a fresh
                       ///< enqueue starts a new entry). The fingerprinted
                       ///< RunResult::repair_preemptions still counts
                       ///< every per-tick deferral.

  kKindCount,          ///< sentinel, not a real kind
};

/// Reasons a policy declined to adopt a remotely-read block
/// (kReplicaSkipped's `detail` field).
enum class SkipReason : std::uint8_t {
  kCoinFailed = 0,   ///< ElephantTrap probability draw came up false
  kTooLarge,         ///< block bigger than the node's entire budget
  kAlreadyPresent,   ///< replica already on disk (or adoption in flight)
  kNoVictim,         ///< eviction could not free enough budget
  kBelowThreshold,   ///< trap count below the promotion threshold
  kQuarantined,      ///< block is locally quarantined after a bad-block report
};

/// Stable display name, e.g. "map_launched". Never localized.
const char* kind_name(EventKind kind);

/// Display name for a SkipReason, e.g. "coin_failed".
const char* skip_reason_name(SkipReason reason);

/// Which exporter track an event belongs to (Chrome trace `tid`).
enum class Track : std::uint8_t {
  kScheduler,  ///< job lifecycle + scheduler decisions
  kNameNode,   ///< heartbeats, failure detection, rejoin, repair
  kNode,       ///< per-node: task execution, replication, disk, faults
};

Track kind_track(EventKind kind);

/// One trace record. Field meaning varies by kind (see EventKind comments);
/// unused fields keep their defaults so exports stay byte-stable.
struct TraceEvent {
  SimTime t = 0;                ///< simulation time, microseconds
  EventKind kind = EventKind::kKindCount;
  NodeId node = kInvalidNode;   ///< worker involved, if any
  JobId job = kInvalidJob;      ///< job involved, if any
  std::int64_t task = -1;       ///< map index / reduce attempt / block id
  std::int64_t detail = 0;      ///< kind-specific discriminant
  double value = 0.0;           ///< kind-specific magnitude
};

}  // namespace dare::obs
