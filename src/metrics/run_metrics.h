// The paper's evaluation metrics (Section V-A).
//
//  * data locality       — fraction of map tasks launched on a node holding
//                          their input block;
//  * GMTT                — geometric mean of job turnaround times (Eq. 1);
//  * slowdown            — turnaround / runtime on a dedicated cluster with
//                          100 % locality (Feitelson & Rudolph);
//  * popularity index cv — uniformity of replica placement (Fig. 11):
//                          PI_i = sum over blocks j on node i of
//                          blockSize_j * blockPopularity_j, summarized by
//                          the coefficient of variation across nodes;
//  * blocks created/job  — dynamic replication activity (Figs. 8, 9).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace dare::metrics {

struct JobMetrics {
  JobId id = kInvalidJob;
  SimTime arrival = 0;
  SimTime completion = 0;
  std::size_t maps = 0;
  std::size_t local_maps = 0;
  std::size_t rack_local_maps = 0;  ///< same rack, different node
  /// Analytic runtime on a free cluster with perfect locality (slowdown
  /// denominator).
  double dedicated_runtime_s = 0.0;
  /// True when the job was killed after a task exhausted its retry budget;
  /// `completion` then records the kill time, and the job is excluded from
  /// turnaround / slowdown / locality aggregates.
  bool failed = false;

  double turnaround_s() const { return to_seconds(completion - arrival); }
  double slowdown() const {
    return dedicated_runtime_s > 0.0 ? turnaround_s() / dedicated_runtime_s
                                     : 0.0;
  }
  double locality() const {
    return maps ? static_cast<double>(local_maps) /
                      static_cast<double>(maps)
                : 0.0;
  }
};

struct RunResult {
  std::vector<JobMetrics> jobs;

  /// Cluster-wide map locality: node-local maps / all maps.
  double locality = 0.0;
  /// Node-local or rack-local maps / all maps (>= locality).
  double rack_locality = 0.0;
  /// Geometric mean turnaround time, seconds.
  double gmtt_s = 0.0;
  /// Jobs whose turnaround was non-positive (completion == arrival, e.g. a
  /// trivially-retried job under churn) and therefore could not enter the
  /// log-domain GMTT. Nonzero means gmtt_s averages fewer jobs than ran.
  std::uint64_t gmtt_skipped_jobs = 0;
  /// Mean slowdown across jobs.
  double mean_slowdown = 0.0;
  /// Mean map-task completion time, seconds (Section V-C).
  double mean_map_time_s = 0.0;

  /// Dynamic replication activity.
  std::uint64_t dynamic_replicas_created = 0;
  std::uint64_t dynamic_replica_disk_writes = 0;  ///< thrashing metric
  double blocks_created_per_job = 0.0;
  /// Bytes explicitly pushed over the network by proactive (Scarlett-style)
  /// replication; always 0 for DARE, which piggybacks on task reads.
  std::uint64_t proactive_replication_bytes = 0;

  /// Fault-tolerance accounting (only nonzero when failures are injected).
  std::uint64_t task_reexecutions = 0;   ///< tasks requeued after node loss
  std::uint64_t rereplicated_blocks = 0; ///< name-node repair copies made
  std::uint64_t blocks_lost = 0;         ///< blocks left with no live replica

  /// Node-churn accounting (only nonzero with scripted or stochastic
  /// faults; see src/faults/).
  std::uint64_t node_failures = 0;        ///< kill events that took effect
  std::uint64_t transient_failures = 0;   ///< failures that later recover
  std::uint64_t permanent_failures = 0;   ///< failures that wipe the disk
  std::uint64_t failures_detected = 0;    ///< declared via missed heartbeats
  /// Total / mean time between a node's physical death and the name node
  /// declaring it dead (heartbeat-timeout detection latency).
  double detection_latency_total_s = 0.0;
  double mean_detection_latency_s = 0.0;
  std::uint64_t node_rejoins = 0;          ///< recoveries (blip or declared)
  /// Surplus static replicas discarded when a repair raced a rejoin.
  std::uint64_t overreplication_prunes = 0;
  std::uint64_t task_attempt_failures = 0; ///< injected attempt failures
  std::uint64_t failed_jobs = 0;           ///< jobs killed after max attempts
  std::uint64_t blacklisted_nodes = 0;     ///< blacklist entries ever made

  /// Data-integrity accounting (only nonzero when corruption is injected;
  /// see src/faults/ CorruptionParams).
  std::uint64_t corrupt_reads = 0;        ///< checksum failures on read
  std::uint64_t corrupt_replicas = 0;     ///< replicas silently corrupted
  std::uint64_t replicas_quarantined = 0; ///< bad-block reports that dropped
                                          ///< a replica from the location list
  std::uint64_t data_loss_events = 0;     ///< blocks whose only remaining
                                          ///< replica is corrupt (kept, never
                                          ///< deleted)
  /// Total / mean time between a repair entering the re-replication queue
  /// and the repair copy registering at the name node.
  double repair_latency_total_s = 0.0;
  double mean_repair_latency_s = 0.0;
  /// Completed windows during which a block had zero visible replicas
  /// (opened by death/quarantine, closed by rejoin/repair or run end).
  std::uint64_t unavailability_windows = 0;
  double unavailability_total_s = 0.0;

  /// Speculative-execution accounting (only nonzero when enabled).
  std::uint64_t speculative_launched = 0;  ///< backup attempts started
  std::uint64_t speculative_wins = 0;      ///< backups that finished first
  std::uint64_t speculative_killed = 0;    ///< attempts cancelled by a winner

  /// Straggler / degraded-mode accounting (only nonzero when the straggler
  /// process or straggler detection is enabled; see faults::StragglerParams
  /// and ClusterOptions::enable_straggler_detection).
  std::uint64_t degraded_onsets = 0;       ///< degraded episodes started
  std::uint64_t degraded_recoveries = 0;   ///< episodes that ended in-run
  std::uint64_t tail_inflations = 0;       ///< attempts hit by tail inflation
  std::uint64_t stragglers_detected = 0;   ///< detected-slow declarations
  std::uint64_t straggler_readmissions = 0; ///< backoff expiries (probation)

  /// Proactive-cloning accounting (only nonzero when task cloning is
  /// enabled). Every launched clone terminally either wins or is killed.
  std::uint64_t clones_launched = 0;       ///< clone attempts started
  std::uint64_t clone_wins = 0;            ///< clones that finished first
  std::uint64_t clones_killed = 0;         ///< clones cancelled or swept
  /// Runtime burned by clones that did not win, seconds (budget overhead).
  double clone_wasted_work_s = 0.0;

  /// Network-fault accounting (only nonzero when the netfault process or
  /// scripted partitions are active; see faults::NetworkFaultParams).
  std::uint64_t partition_episodes = 0;    ///< rack partitions started
  std::uint64_t partitions_healed = 0;     ///< partitions that ended in-run
  std::uint64_t link_degrade_episodes = 0; ///< uplink degradations started
  /// Reads whose preferred replica sat behind a partitioned boundary and
  /// paid the fail-fast connect timeout before retrying elsewhere.
  std::uint64_t unreachable_reads = 0;

  /// Repair-queue ledger (nonzero in any run that queues repairs). Every
  /// first-time enqueue terminally lands or is abandoned; at all_done
  /// repairs_enqueued == repairs_landed + repairs_abandoned (the in-queue /
  /// in-flight terms of the validate() equation are zero once the event
  /// queue drains).
  std::uint64_t repairs_enqueued = 0;      ///< first-time enqueues (deduped)
  std::uint64_t repairs_landed = 0;        ///< repair copies registered
  std::uint64_t repairs_abandoned = 0;     ///< no source/dest, superseded,
                                           ///< or closed out at teardown
  std::uint64_t repair_retries = 0;        ///< re-enqueues with backoff
  std::uint64_t repair_timeouts = 0;       ///< transfers severed mid-flight
  std::uint64_t repair_preemptions = 0;    ///< bulk entries deferred behind
                                           ///< the critical class
  /// Exposure windows during which a block was down to exactly one visible
  /// replica (opened by a loss to one copy, closed by repair/rejoin/loss or
  /// run end). The tail-risk metric bench_netfault reports.
  std::uint64_t one_replica_windows = 0;
  double one_replica_total_s = 0.0;

  /// Fig. 11 uniformity: cv of node popularity indices with the initial
  /// (static) placement and with the final placement.
  double cv_before = 0.0;
  double cv_after = 0.0;

  /// Wall-clock sanity data.
  SimTime makespan = 0;

  /// Deterministic work counts of the event loop and the slot-offer path:
  /// exact on any machine, so a test can pin them, and never mixed into
  /// fingerprint() (they measure how the simulator computes a run, not what
  /// it computes).
  struct Work {
    /// Executed events per kind, indexed by cluster::Cluster::EventKind.
    static constexpr std::size_t kEventKinds = 23;
    std::array<std::uint64_t, kEventKinds> events{};
    std::uint64_t sweeps = 0;            ///< cluster-wide offer sweeps
    std::uint64_t node_visits = 0;       ///< per-node offers (any source)
    std::uint64_t select_map_calls = 0;  ///< scheduler map selections asked
    std::uint64_t select_reduce_calls = 0;  ///< reduce selections asked
    std::uint64_t job_probes = 0;        ///< Fair: jobs probed for a node
    std::uint64_t memo_answers = 0;      ///< Fair: offers the memo declined
    /// Locality-index upkeep (sched::LocalityIndex::Work): candidate
    /// entries inserted and erased, table allocations and doublings, and
    /// watchers visited by replica deltas.
    std::uint64_t candidate_inserts = 0;
    std::uint64_t candidate_erases = 0;
    std::uint64_t candidate_allocations = 0;
    std::uint64_t watcher_visits = 0;
  };
  Work work;
};

/// Fill the aggregate fields of `result` from its per-job entries plus the
/// provided counters. `map_times_s` holds every map task's duration.
void finalize(RunResult& result, const std::vector<double>& map_times_s);

/// Same, but with the map-time statistics already accumulated (Welford, in
/// launch order). The cluster streams durations into an OnlineStats instead
/// of storing one double per map task; the vector overload builds the same
/// accumulator in the same order, so both produce bit-identical means.
void finalize(RunResult& result, const OnlineStats& map_time_stats);

/// Popularity index of one node: sum over its blocks of size * popularity.
/// `block_sizes` and `block_popularity` are parallel arrays indexed by the
/// node's block list.
double popularity_index(const std::vector<Bytes>& block_sizes,
                        const std::vector<double>& block_popularity);

/// Order-sensitive 64-bit digest (FNV-1a) of every field of a RunResult,
/// including each per-job record and the exact bit patterns of all doubles.
/// Two runs of the same seeded configuration must produce equal
/// fingerprints — the repo's determinism guarantee (see
/// tests/test_determinism.cpp, which runs each configuration twice).
std::uint64_t fingerprint(const RunResult& result);

}  // namespace dare::metrics
