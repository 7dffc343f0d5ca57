// Configuration of a simulated cluster run: hardware profile, scheduler,
// replication policy, and the three DARE knobs the paper's patch adds to
// Hadoop (p, threshold, budget).
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/repair_scheduler.h"
#include "core/elephant_trap.h"
#include "core/scarlett.h"
#include "faults/fault_model.h"
#include "net/profile.h"

namespace dare::obs {
class PhaseProfiler;
class TraceCollector;
}

namespace dare::cluster {

enum class SchedulerKind { kFifo, kFair };
enum class PolicyKind { kVanilla, kGreedyLru, kGreedyLfu, kElephantTrap };

const char* scheduler_name(SchedulerKind kind);
const char* policy_name(PolicyKind kind);

struct ClusterOptions {
  /// Hardware/topology profile. `profile.topology.nodes` is the *total*
  /// cluster size, paper-style (1 master + N-1 slaves); the master does not
  /// hold blocks or run tasks and its metadata traffic is not modeled, so
  /// the simulator instantiates N-1 worker nodes.
  net::ClusterProfile profile = net::cct_profile(20);

  /// Hadoop 0.21-era slot configuration.
  std::size_t map_slots_per_node = 2;
  std::size_t reduce_slots_per_node = 1;

  /// Data-node heartbeat period (dynamic replicas become schedulable at the
  /// next heartbeat). The idle-slot retry period is a fixed 1 s.
  SimDuration heartbeat_interval = from_seconds(3.0);

  SchedulerKind scheduler = SchedulerKind::kFifo;
  /// Fair scheduler delay-scheduling window: how long a job waits for a
  /// local slot before accepting a non-local launch. Calibrated to the
  /// simulator's task-duration scale (the paper's Hadoop setup used ~5 s
  /// with ~10x longer tasks).
  SimDuration fair_delay = from_millis(500);

  PolicyKind policy = PolicyKind::kVanilla;
  /// Replication budget as a fraction of the mean static bytes per node.
  double budget_fraction = 0.2;
  core::ElephantTrapParams trap{};

  /// Optional Scarlett-style proactive epoch replication (ablation). The
  /// paper's comparator, an alternative to DARE: Cluster rejects it with
  /// any policy but kVanilla, since its copies bypass a DARE policy's
  /// budget accounting.
  bool enable_scarlett = false;
  core::ScarlettParams scarlett{};

  /// --- fault injection ---------------------------------------------------
  /// Kill the given workers at the given times. A permanent failure loses
  /// the node's disk; a transient one keeps it (stale) and the node rejoins
  /// after `downtime`. Running tasks on the victim are re-queued once the
  /// name node *detects* the death via missed heartbeats (no omniscient
  /// notification), and the re-replication pipeline restores the
  /// replication factor of affected blocks from the surviving copies.
  struct FailureEvent {
    SimTime at = 0;
    NodeId worker = kInvalidNode;
    faults::FaultKind kind = faults::FaultKind::kPermanent;
    /// Time until the node comes back (transient failures only; ignored for
    /// permanent ones).
    SimDuration downtime = 0;
  };
  std::vector<FailureEvent> failures;

  /// Stochastic node churn on top of (or instead of) scripted failures:
  /// per-node exponential uptime/downtime, mixed transient/permanent kinds,
  /// optional rack-correlated blast radius, and injected task-attempt
  /// failures. See faults::FaultInjectionParams for the knobs.
  faults::FaultInjectionParams faults;

  /// --- data integrity ----------------------------------------------------
  /// Stochastic silent corruption: per-GB bit rot discovered when a read
  /// verifies its checksum, plus latent whole-replica sector loss striking
  /// idle copies in the background. Like `faults`, driven by its own forked
  /// RNG stream — disabled runs are bit-identical to a build without the
  /// subsystem. See faults::CorruptionParams.
  faults::CorruptionParams corruption;

  /// Scripted corruption on top of (or instead of) the stochastic process:
  /// at `at`, silently corrupt the replica of `block` held by `node` —
  /// or every currently visible replica when `node` is kInvalidNode (the
  /// forced last-good-replica scenario). The damage surfaces when a read
  /// verifies the copy.
  struct CorruptionEvent {
    SimTime at = 0;
    BlockId block = kInvalidBlock;
    NodeId node = kInvalidNode;  ///< kInvalidNode = all current holders
  };
  std::vector<CorruptionEvent> corruption_events;

  /// A worker is declared dead after this many consecutive missed
  /// heartbeats (Hadoop's 10-minute expiry scaled to simulator time).
  std::size_t detection_missed_heartbeats = 3;

  /// A task is retried at most this many times (Hadoop's
  /// mapreduce.map.maxattempts = 4); the next *failed* (not killed)
  /// attempt past the limit fails the whole job. Attempts killed by node
  /// loss do not count.
  std::size_t max_task_attempts = 4;

  /// Blacklist a worker for new launches after this many injected task
  /// failures on it (0 = never blacklist). A node leaves the blacklist by
  /// rejoining after a failure.
  std::size_t node_blacklist_threshold = 3;

  /// Re-replication pipeline: how often the name node scans its repair
  /// queue and how many block copies it starts per scan.
  bool enable_rereplication = true;
  SimDuration rereplication_interval = from_seconds(5.0);
  std::size_t rereplication_batch = 8;

  /// Ordering discipline of the repair queue: prioritized (two classes,
  /// critical-before-bulk, the default) or plain FIFO (the A/B baseline in
  /// bench_netfault). Either way the queue dedups: a block whose replicas
  /// die in quick succession is queued once. See cluster/repair_scheduler.h.
  RepairPolicy repair_policy = RepairPolicy::kPrioritized;
  /// Bandwidth-aware admission: at most this many concurrent *repair*
  /// transfers may cross any one rack uplink (either endpoint), so a repair
  /// storm after a rack loss cannot starve task reads of uplink bandwidth.
  /// 0 = unbounded. Entries deferred by the cap stay queued with no retry
  /// penalty.
  std::size_t max_repairs_per_uplink = 2;
  /// Base re-enqueue backoff after a retryable repair failure (unreachable
  /// source, destination lost, transfer severed mid-flight); doubles per
  /// consecutive retry of the same entry (shift capped at 4 → 16x).
  SimDuration repair_retry_backoff = from_seconds(5.0);

  /// --- stragglers & degraded nodes ----------------------------------------
  /// Stochastic degraded-mode injection (persistent compute/disk slowdowns
  /// with exponential onset/recovery, optionally rack-correlated) plus
  /// per-attempt heavy-tailed service-time inflation. Like `faults` and
  /// `corruption`, driven by its own forked RNG stream — disabled runs are
  /// bit-identical to a build without the subsystem. See
  /// faults::StragglerParams.
  faults::StragglerParams stragglers;

  /// --- network faults ------------------------------------------------------
  /// Stochastic interconnect trouble: per-rack partition episodes (the
  /// top-of-rack switch cuts the rack off from the cluster *and* the
  /// master — heartbeats are lost, the missed-beat detector declares the
  /// rack dead, heal reconciles via full re-registration) and per-rack
  /// uplink-degradation episodes (cross-rack transfers limp at a fraction
  /// of their bandwidth with inflated latency). Like `faults`,
  /// `corruption`, and `stragglers`, driven by its own forked RNG stream —
  /// disabled runs are bit-identical to a build without the subsystem. See
  /// faults::NetworkFaultParams.
  faults::NetworkFaultParams netfault;

  /// Scripted partitions on top of (or instead of) the stochastic process:
  /// at `at`, cut `rack` off for `duration`. Used by the deterministic
  /// partition-heal/repair-race tests and the failure drills; the reaction
  /// machinery (lost heartbeats, reachability filtering, heal
  /// reconciliation) is identical to the stochastic path.
  struct PartitionEvent {
    SimTime at = 0;
    RackId rack = 0;
    SimDuration duration = 0;
  };
  std::vector<PartitionEvent> partition_events;

  /// Progress-rate straggler detection in the name-node heartbeat path. The
  /// name node keeps a per-node EWMA of (observed attempt duration /
  /// cluster-mean attempt duration) fed only by completed attempts — it
  /// never reads the injected degradation state. A node whose EWMA crosses
  /// `straggler_detect_ratio` after at least `straggler_detect_min_samples`
  /// observations is *detected-slow*: excluded from new task launches and
  /// deprioritized as a read/repair source until a backoff (doubling per
  /// repeat offence) expires and the node is re-admitted on probation. The
  /// EWMA smoothing factor is a fixed 0.3.
  bool enable_straggler_detection = false;
  double straggler_detect_ratio = 1.8;
  std::size_t straggler_detect_min_samples = 3;
  /// Base re-admission backoff; doubles per consecutive detection (capped).
  SimDuration straggler_backoff = from_seconds(30.0);

  /// --- proactive task cloning ---------------------------------------------
  /// Budgeted task cloning (arXiv 1501.02330): every map launch may
  /// immediately receive a full clone on a different node, first finisher
  /// wins and the loser is killed. Unlike speculation this needs no
  /// progress estimate, at the price of duplicated work bounded by the
  /// clone budget.
  bool enable_task_cloning = false;
  /// Clone budget as a fraction of total map slots; clones never occupy
  /// more than this share of the cluster at once.
  double clone_budget_fraction = 0.1;
  /// Only clone maps of jobs with at most this many map tasks (cloning pays
  /// off for small jobs, per the paper); 0 = clone any job.
  std::size_t clone_job_max_maps = 0;

  /// --- speculative execution ----------------------------------------------
  /// Hadoop-style backup tasks: once a job has no pending maps, a running
  /// map whose age exceeds 1.7 times the job's mean completed-map duration
  /// gets a duplicate attempt on a free slot; the first attempt to finish
  /// wins and the other is killed. The scan runs every 1 s.
  bool enable_speculation = false;

  /// --- observability ------------------------------------------------------
  /// Structured event tracer (src/obs). Borrowed pointer, must outlive the
  /// run; null (the default) disables tracing entirely — every emission
  /// site is a single `if (tracer)` branch, and the run is bit-identical
  /// (same metrics::fingerprint) with tracing on or off.
  obs::TraceCollector* tracer = nullptr;
  /// Scoped process-CPU phase profiler. Borrowed, null = disabled. CPU
  /// readings never enter events, RunResult, or fingerprints.
  obs::PhaseProfiler* profiler = nullptr;
  /// Cadence of the cluster-wide time-series sampler (queue depth, slot
  /// utilization, budget occupancy, popularity-index cv) when a tracer is
  /// attached; 0 disables sampling. The sampling event is cancelled at run
  /// finish, so it never extends the makespan.
  SimDuration trace_sample_interval = from_seconds(1.0);

  std::uint64_t seed = 42;
};

}  // namespace dare::cluster
