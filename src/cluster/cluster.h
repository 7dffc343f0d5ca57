// The simulated MapReduce cluster: wires the event engine, topology,
// network, HDFS (name node + data nodes), schedulers, and the DARE
// replication policies into a runnable experiment.
//
// One Cluster instance runs one workload once, single-threaded and
// deterministic for a given seed. Parameter sweeps construct many Cluster
// instances and run them on a thread pool (see experiment.h).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/heartbeat_chains.h"
#include "cluster/options.h"
#include "cluster/repair_scheduler.h"
#include "cluster/slot_ledger.h"
#include "common/arena.h"
#include "common/invariant.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/replication_policy.h"
#include "faults/fault_model.h"
#include "metrics/run_metrics.h"
#include "net/network.h"
#include "net/topology.h"
#include "sched/locality_index.h"
#include "sched/scheduler.h"
#include "sim/simulation.h"
#include "storage/datanode.h"
#include "storage/namenode.h"
#include "workload/workload.h"

namespace dare::cluster {

class Cluster {
 public:
  explicit Cluster(const ClusterOptions& options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Load the workload's catalog into HDFS, replay its jobs, run the
  /// simulation to completion, and return the aggregated metrics.
  /// May be called once per Cluster instance.
  metrics::RunResult run(const workload::Workload& workload);

  /// Streaming variant: jobs are pulled from the spec's generator as
  /// simulated time reaches their arrivals, so the run never materializes
  /// the full job vector and per-job bookkeeping stays O(active jobs).
  /// Produces the same RunResult as run(materialize(spec)).
  metrics::RunResult run_stream(const workload::WorkloadSpec& spec);

  /// Exhaustive cross-component consistency check; throws std::logic_error
  /// with a description on the first violated invariant. Intended for tests
  /// (it walks every block): slot accounting, name-node/data-node replica
  /// agreement, no metadata pointing at dead nodes, job-table totals.
  void validate() const;

  /// Introspection for tests.
  std::size_t worker_count() const { return data_nodes_.size(); }
  const net::Topology& topology() const { return *topology_; }
  const storage::NameNode& name_node() const { return *name_node_; }
  const storage::DataNode& data_node(std::size_t i) const {
    return *data_nodes_.at(i);
  }
  Bytes node_budget_bytes() const { return node_budget_bytes_; }
  /// Residency telemetry for the O(active) regression tests.
  const sched::JobTable& job_table() const { return jobs_; }

  /// --- events -------------------------------------------------------------
  /// Every event the cluster schedules is a sim::Event of one of these
  /// kinds, and dispatch() routes each popped record to its handler. The
  /// record carries only ids (noted per kind: `node` is a worker or rack,
  /// `id` one further operand); anything else a handler needs is state that
  /// cannot change while the event is pending. RunResult::work.events
  /// counts the executed events per kind, indexed by this enum.
  enum class EventKind : std::uint32_t {
    kJobArrival,             ///< admits next_arrival_
    kHeartbeat,              ///< node: worker
    kSchedulerRetry,
    kMapAttemptFinished,     ///< node: worker; id: task_key
    kReduceAttemptFinished,  ///< id: reduce attempt id
    kSpeculationTick,
    kDetectionTick,
    kFailureOnset,           ///< node: worker; id: fault epoch
    kNodeRecovered,          ///< node: worker; id: fault epoch
    kDegradeOnset,           ///< node: worker
    kDegradeEnd,             ///< node: worker
    kPartitionOnset,         ///< node: rack
    kPartitionEnd,           ///< node: rack
    kLinkDegradeOnset,       ///< node: rack
    kLinkDegradeEnd,         ///< node: rack
    kRereplicationTick,
    kRepairLanded,           ///< id: repair_flights_ index
    kLatentCorruption,
    kSampleTick,
    kScarlettEpoch,
    kScriptedFailure,        ///< id: index into options_.failures
    kScriptedCorruption,     ///< id: index into options_.corruption_events
    kScriptedPartition,      ///< id: index into options_.partition_events
                             ///< (stays last: it sizes the per-kind counts)
  };
  static_assert(static_cast<std::size_t>(EventKind::kScriptedPartition) + 1 ==
                    metrics::RunResult::Work::kEventKinds,
                "RunResult::Work::events needs one counter per EventKind");
  /// Short name of a kind, for reports ("heartbeat", "job_arrival", ...).
  static const char* event_kind_name(EventKind kind);

 private:
  static sim::Event make_event(EventKind kind,
                               std::int32_t node = kInvalidNode,
                               std::uint64_t id = 0) {
    return sim::Event{static_cast<std::uint32_t>(kind), node, id};
  }
  /// The one switch over EventKind (no default: -Wswitch flags a kind
  /// without a handler).
  void dispatch(const sim::Event& event);

  /// What a Hadoop scheduler sees: replica locations as of the last
  /// heartbeat (the name node's metadata), not physical disk contents.
  /// Speculation and clone targeting use these, and validate() checks the
  /// locality index against them.
  bool is_local(NodeId node, BlockId block) const;
  bool is_rack_local(NodeId node, BlockId block) const;

  /// Shared body of run()/run_stream(): catalog load, policy setup, the
  /// event loop, and result collection. `stream` yields the jobs in arrival
  /// order; `total_jobs` is the count it will produce.
  metrics::RunResult run_with(const std::vector<workload::FileSpec>& catalog,
                              const workload::CatalogSpec& catalog_spec,
                              const std::vector<std::size_t>& access_counts,
                              std::size_t total_jobs,
                              std::unique_ptr<workload::JobStream> stream);

  void load_files(const std::vector<workload::FileSpec>& catalog,
                  const workload::CatalogSpec& catalog_spec,
                  const std::vector<std::size_t>& access_counts);
  void create_policies();
  /// Pull-based admission: materialize the template into a JobSpec and
  /// register it with the job table (at its arrival event).
  void admit_job(const workload::JobTemplate& tmpl);
  /// Pull the next job into next_arrival_ and schedule its arrival event.
  void schedule_next_arrival();
  /// Retire observer (jobs_): copy the finished job's metrics out before
  /// its runtime (and with it the job's side tables) is released.
  void on_job_retired(const sched::JobRuntime& rt);
  void start_heartbeats();
  /// A beat of `worker`: its kHeartbeat event, or the re-registration beat
  /// a rejoin runs out of band.
  void heartbeat(NodeId worker);
  /// What a beat of `worker` would carry: a dynamic report, a marked
  /// replica, or straggler work (a verdict due from its progress samples,
  /// or a probation to end). A chain without it sleeps.
  bool has_beat_work(std::size_t worker) const {
    return data_nodes_[worker]->has_beat_work() ||
           (options_.enable_straggler_detection &&
            (detected_slow_[worker] || straggler_evidence(worker)));
  }
  /// The monitor's chain id in chains_ (the workers' are their node ids).
  std::size_t monitor_chain() const { return data_nodes_.size(); }
  /// Move the master's freshness stamp of `worker` to its latest phase
  /// point at or before `t` that is not still pending: beats its chain
  /// skipped asleep reach the master like fired ones while the node is
  /// reachable. The callers stamp at every monitor tick, and freeze the
  /// stamp at the last phase point before a death or a cut.
  void stamp_skipped_beats(std::size_t worker, SimTime t) {
    name_node_->heartbeat_skipped(static_cast<NodeId>(worker),
                                  chains_.latest_phase(worker, t));
  }
  /// validate()'s heartbeat-chain clause, also run at every monitor tick in
  /// invariant builds: "" or the first broken rule.
  std::string heartbeat_chain_fault() const;

  void try_assign_all();
  void try_assign_node(NodeId worker);
  void launch_map(NodeId worker, const sched::MapSelection& selection);
  void launch_reduce(NodeId worker, JobId job);
  void maybe_schedule_tick();

  /// Fault injection + repair. A node *failing* (fail_node) and the name
  /// node *detecting* the failure (declare_node_dead, driven by
  /// detection_tick's missed-heartbeat scan) are separate events: no call
  /// site learns of a death before the heartbeat timeout expires.
  void fail_node(NodeId worker, faults::FaultKind kind, SimDuration downtime);
  void declare_node_dead(NodeId worker);
  void detection_tick();
  void recover_node(NodeId worker, std::uint64_t epoch);
  void schedule_stochastic_failure(NodeId worker, std::uint64_t epoch);
  /// Stochastic failure of `worker` (and its rack, if correlated).
  void on_failure_onset(NodeId worker, std::uint64_t epoch);
  /// Cancel + requeue every attempt running on `worker` (its tracker died
  /// or rebooted; either way it will not report those tasks back).
  void cleanup_node_attempts(NodeId worker);
  /// Kill a job whose task exhausted max_task_attempts.
  void fail_job(JobId job);
  void note_node_task_failure(NodeId worker);
  /// Once the run is finished: cancel dangling churn events (stochastic
  /// failures, recoveries, the detection monitor, the sampler, a pending
  /// Scarlett epoch) so the event queue drains, and start the heartbeats'
  /// final round. Every live node beats once more at its first phase point
  /// at or after the finish, which delivers its last reports and sets the
  /// makespan: the last job completion plus up to one interval.
  void cancel_pending_churn();
  void rereplication_tick();
  /// Retryable repair failure: re-enqueue `entry` with exponential backoff
  /// (kRepairRetried), or abandon it once the run has finished so the event
  /// queue is guaranteed to drain even under an unhealed partition.
  void retry_repair(RepairScheduler::Entry entry);
  /// Terminal repair outcomes (the enqueue/land/abandon ledger).
  void abandon_repair(const RepairScheduler::Entry& entry);
  void land_repair(const RepairScheduler::Entry& entry);
  /// The copy repair_flights_[flight] arrives: land, retry or abandon it.
  void on_repair_landed(std::uint32_t flight);
  /// Urgency of repairing `block` now: critical when at most one live
  /// reachable replica remains, bulk otherwise.
  RepairClass classify_repair(BlockId block) const;
  bool node_usable(std::size_t worker) const {
    return !dead_[worker] && !blacklisted_[worker];
  }

  /// --- network faults (partitions + degraded uplinks) ---------------------
  /// Per-rack episode chains mirroring the degrade-chain pattern: onset
  /// events sample the netfault process's forked stream, end events heal
  /// and chain the next onset unless the run already finished. A
  /// partitioned rack keeps running physically — its heartbeats are lost at
  /// the boundary, the missed-beat detector declares its nodes dead, and
  /// heal reconciles the survivors via the same full re-registration path
  /// a rebooted node uses (node_rejoined prunes surplus copies exactly
  /// once).
  void schedule_partition_onset(RackId rack);
  void begin_partition(RackId rack, SimDuration duration);
  void end_partition(RackId rack);
  void schedule_link_onset(RackId rack);
  void begin_link_degrade(RackId rack, SimDuration duration);
  void end_link_degrade(RackId rack);
  /// Full block-report reconciliation of a declared-dead node that is
  /// physically alive again (partition healed, or reboot finished): scrub
  /// corrupt copies, node_rejoined, prune surplus statics, rebuild the
  /// policy, reset the blacklist. Shared by recover_node and end_partition.
  void reregister_node(NodeId worker);
  bool node_partitioned(std::size_t worker) const {
    return netfault_active_ && network_->rack_partitioned(node_rack_[worker]);
  }

  /// --- map attempts: one launcher and one kill path for all three kinds ---
  /// Original attempts come from the scheduler, speculative backups from
  /// speculation_tick, and budgeted clones from maybe_clone.
  enum class AttemptKind : std::uint8_t { kOriginal, kSpeculative, kClone };
  struct MapAttempt {
    NodeId node = kInvalidNode;
    SimTime started = 0;
    sim::EventHandle completion;
    AttemptKind kind = AttemptKind::kOriginal;
    /// Remote-read flow held by this attempt (released on completion or on
    /// kill — a cancelled completion event can no longer release it).
    bool holds_flow = false;
    NodeId flow_src = kInvalidNode;
  };
  struct MapTaskState {
    BlockId block = kInvalidBlock;
    sched::Locality original_locality = sched::Locality::kOffRack;
    std::vector<MapAttempt> attempts;
  };
  /// running_maps_ key of a map task: (job << 20) | map_index.
  static std::uint64_t task_key(JobId job, std::size_t map_index) {
    DARE_INVARIANT(job >= 0 && map_index < (1u << 20),
                   "Cluster: task_key would collide (map index >= 2^20 or "
                   "negative job id)");
    return (static_cast<std::uint64_t>(job) << 20) |
           static_cast<std::uint64_t>(map_index);
  }
  static JobId task_job(std::uint64_t key) {
    return static_cast<JobId>(key >> 20);
  }
  static std::size_t task_map(std::uint64_t key) {
    return static_cast<std::size_t>(key & 0xFFFFF);
  }
  /// Start one attempt of `map_index` on `worker`: record the task's block
  /// in `state`, take the slot, trace the launch, plan the read, apply
  /// straggler and slowdown physics, offer the block to the DARE policy,
  /// and schedule the completion. Returns the attempt's duration. The order
  /// of these steps fixes the RNG draws.
  SimDuration start_map_attempt(NodeId worker, JobId job,
                                std::size_t map_index, MapTaskState& state,
                                sched::Locality locality, AttemptKind kind);
  /// Locality tier of a read of `block` on `node`, as the name node sees it.
  sched::Locality locality_of(NodeId node, BlockId block) const;
  /// Backup target for speculation and cloning: the first open node other
  /// than `original` with a free map slot, preferring one local to `block`.
  /// A detected-slow node is never a target — hedging on a suspect defeats
  /// its purpose. kInvalidNode when no slot is free.
  NodeId pick_backup_node(NodeId original, BlockId block) const;
  /// Kill `attempt` (a loser of the race or an attempt of a failed job):
  /// cancel its completion, retire it if it is a clone (else trace the
  /// kill), and release its flow and slot. Returns whether the completion
  /// was still pending. A zombie (completion fired on a dead or partitioned
  /// node) released its flow when it fired; its slot comes back with the
  /// node's ledger reset.
  bool kill_map_attempt(JobId job, std::size_t map_index, MapAttempt& attempt);
  /// Clone-ledger update for a clone removed without finishing: shared by
  /// kill_map_attempt and cleanup_node_attempts.
  void retire_killed_clone(JobId job, std::size_t map_index,
                           const MapAttempt& attempt);

  /// Speculative execution.
  void speculation_tick();
  /// The attempt of task `key` on `worker` reports back. Its flow and
  /// duration come from its MapAttempt: `holds_flow` is cleared only here or
  /// after a successful cancel, and the event fires at `started` + duration.
  void on_map_attempt_finished(std::uint64_t key, NodeId worker);
  /// The same for a reduce attempt, from its ReduceAttempt record.
  void on_reduce_attempt_finished(std::uint64_t attempt_id);
  bool run_finished() const;

  /// --- stragglers: injection (physical truth) -----------------------------
  /// Degraded-mode state machine, mirroring the stochastic-churn epoch
  /// pattern: each node alternates nominal/degraded on its own chain of
  /// events driven by the straggler process's forked stream. Degradation
  /// only changes task physics (compute + disk multipliers); no mitigation
  /// decision ever reads `degraded_` directly.
  void schedule_degrade_onset(NodeId worker);
  /// Degrade onset of `worker` (and its rack, if correlated).
  void on_degrade_onset(NodeId worker);
  void begin_degrade(NodeId worker, SimDuration duration,
                     bool rack_correlated);
  void end_degrade(NodeId worker);
  /// Compute-side duration adjustment for an attempt launching on `worker`:
  /// the degraded-mode compute multiplier plus one heavy-tailed inflation
  /// draw (a fixed draw per launch whenever the process is enabled).
  SimDuration straggler_compute(NodeId worker, SimDuration compute);

  /// --- stragglers: detection (name-node belief) ---------------------------
  /// The name node's progress-rate view: per-node EWMA of observed attempt
  /// duration over the cluster-mean attempt duration, fed only by completed
  /// attempts (never by the injected state). Evaluated in the heartbeat
  /// path; a detected-slow node is excluded from launches and deprioritized
  /// as a read/repair source until its backoff expires.
  void note_attempt_progress(NodeId worker, double duration_s);
  /// Enough samples, with an EWMA at or past the ratio: the next beat
  /// weighs flagging `worker` slow.
  bool straggler_evidence(std::size_t worker) const {
    return progress_samples_[worker] >=
               options_.straggler_detect_min_samples &&
           progress_ewma_[worker] >= options_.straggler_detect_ratio;
  }
  void straggler_decision(NodeId worker);
  /// Launch-eligibility gate: usable, not currently detected-slow, and not
  /// cut off behind a partitioned rack uplink (the master cannot reach a
  /// partitioned tracker to hand it work, whatever it believes about it).
  bool node_open_for_launch(std::size_t worker) const {
    return node_usable(worker) && !detected_slow_[worker] &&
           !node_partitioned(worker);
  }
  /// Copy the gate into the slot ledger's open bit, which next_free()
  /// honours. Called at each of the 8 sites that change an input of the
  /// gate: fail_node, recover_node, the blacklist and its reset in
  /// reregister_node, straggler detection and the end of its probation,
  /// and partition start and heal (for each node of the rack).
  void refresh_open(std::size_t worker) {
    slots_.set_open(worker, node_open_for_launch(worker));
  }
  /// validate()'s open-bit clause, also run at every monitor tick in
  /// invariant builds: "" or the first node whose bit disagrees.
  std::string open_mask_fault() const;

  /// --- proactive task cloning ---------------------------------------------
  /// Launch a budgeted clone of the map just launched on `original`, if the
  /// budget, job filter, and a free slot on another open node allow it.
  void maybe_clone(JobId job, std::size_t map_index, MapTaskState& state,
                   NodeId original);
  /// Exactly-once clone retirement: decrements the cluster-wide and per-job
  /// running-clone counts. Called from every path that removes a clone
  /// attempt: its own completion, and retire_killed_clone (winner kill,
  /// job failure, node-loss sweep).
  void retire_clone(JobId job);

  /// Pick the replica source for a remote read: same rack first, then
  /// fewest active flows, then lowest id (deterministic). Candidates behind
  /// a partitioned boundary are skipped like dead ones; when
  /// `unreachable_skipped` is non-null it receives how many such candidates
  /// were passed over (the reader's fail-fast connect timeouts).
  NodeId pick_source(NodeId reader, BlockId block,
                     std::size_t* unreachable_skipped = nullptr) const;

  /// --- data integrity (checksums, quarantine, repair accounting) ---------
  /// The read leg of a map attempt. `src` is the replica actually read
  /// (== worker for a local or archival read); `remote_flow` says whether a
  /// network flow was started and must be released on completion.
  struct ReadPlan {
    SimDuration duration = 0;
    NodeId src = kInvalidNode;
    bool remote_flow = false;
  };
  /// Compute the read duration for `block`, verifying checksums when the
  /// corruption subsystem is active. A failed local read falls back to a
  /// remote replica; failed remote reads retry from the next surviving
  /// replica (the wasted transfer time stays charged to the attempt). When
  /// no good copy remains, the archival-restore penalty applies. With the
  /// subsystem off this reproduces the pre-checksum read path draw for draw.
  ReadPlan plan_read(NodeId worker, BlockId block, Bytes bytes,
                     bool node_local);
  /// One checksum verification of `holder`'s copy of `block`. Draws exactly
  /// one corruption sample per call when the stochastic process is on,
  /// independent of the replica's current state.
  bool checksum_fails(NodeId holder, BlockId block, Bytes bytes);
  /// Hadoop-style reportBadBlock: tell the name node, quarantine the copy,
  /// and queue a repair — unless it was the last replica (data loss; the
  /// copy is never deleted).
  storage::NameNode::BadBlockResult handle_bad_block(BlockId block,
                                                     NodeId holder);
  void queue_repair(BlockId block);
  void record_data_loss(BlockId block);
  void mark_replica_corrupt(NodeId holder, BlockId block);
  /// Background sector-loss process: periodically corrupt one replica on
  /// one live node (silently — a later read discovers it).
  void schedule_latent_corruption();
  void latent_corruption_strike();
  /// Single replica-delta observer: feeds the locality index (when built)
  /// and tracks block unavailability windows (when faults or corruption are
  /// configured).
  void on_replica_delta(BlockId block, NodeId node, bool added);
  /// Closes the window opened at `opened` (kTimeNever: none is open) at
  /// now, adding it to `windows` and `total`.
  void close_window(SimTime& opened, std::uint64_t& windows,
                    SimDuration& total);

  double dedicated_runtime_s(const sched::JobSpec& spec) const;

  void scarlett_epoch();

  /// Time-series gauge sampler (observability): runs every
  /// options_.trace_sample_interval while a tracer is attached, cancelled
  /// via cancel_pending_churn() the moment the run finishes.
  void sample_tick();
  /// Popularity index of every live node (sum of block size x file access
  /// count), in node-id order — the quantity behind cv_after and the
  /// sampler's popularity_cv gauge.
  std::vector<double> live_node_popularity() const;
  double popularity_of(FileId file) const {
    return file_popularity_[static_cast<std::size_t>(file)];
  }

  metrics::RunResult collect_results();

  ClusterOptions options_;
  sim::Simulation sim_;
  Rng rng_;

  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<storage::NameNode> name_node_;
  std::vector<std::unique_ptr<storage::DataNode>> data_nodes_;
  std::vector<std::unique_ptr<core::ReplicationPolicy>> policies_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  /// Inverted locality index fed by the name node's replica deltas; the
  /// job table answers every scheduler locality query from it.
  std::unique_ptr<sched::LocalityIndex> locality_index_;

  sched::JobTable jobs_;
  /// Sweep state: per-node free slots + a free-node bitset per slot kind.
  SlotLedger slots_;

  Bytes node_budget_bytes_ = 0;
  bool tick_scheduled_ = false;
  std::size_t assign_rotation_ = 0;
  bool ran_ = false;

  /// Fault-injection state. `dead_` is physical truth (the node's process
  /// is down); the name node's is_node_alive is its belief, which lags by
  /// the heartbeat-detection latency. A transient blip shorter than the
  /// detection timeout never flips that belief at all.
  std::vector<bool> dead_;
  std::vector<SimTime> death_time_;
  std::vector<faults::FaultKind> death_kind_;
  /// Bumped on every death *and* every recovery; pending failure/recovery
  /// events carry the epoch they were scheduled under and no-op on mismatch.
  std::vector<std::uint64_t> fault_epoch_;
  std::vector<bool> blacklisted_;
  std::vector<std::size_t> node_task_failures_;
  std::unique_ptr<faults::FaultProcess> fault_process_;
  /// One chain per worker (its heartbeats), then the detection monitor's;
  /// empty until start_heartbeats().
  HeartbeatChains chains_;
  std::vector<sim::EventHandle> next_failure_;
  std::vector<sim::EventHandle> recover_event_;
  /// Two-class prioritized repair queue (dedup + deterministic ordering;
  /// see cluster/repair_scheduler.h). Replaced the PR 5 FIFO deque.
  RepairScheduler repairs_;
  bool repair_tick_scheduled_ = false;
  /// Concurrent repair transfers crossing each rack's uplink (bandwidth-
  /// aware admission; bounded by options_.max_repairs_per_uplink).
  std::vector<std::size_t> repair_uplink_inflight_;
  /// Repair copies in transfer, indexed by their landing event's id; a
  /// landed flight's slot is recycled through free_repair_flights_. Every
  /// first-time enqueue terminally lands or is abandoned; validate() checks
  /// the result_ ledger: enqueued == landed + abandoned + queued + in-flight.
  struct RepairFlight {
    RepairScheduler::Entry entry;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
  };
  std::vector<RepairFlight> repair_flights_;
  std::vector<std::uint32_t> free_repair_flights_;
  std::size_t repairs_inflight() const {
    return repair_flights_.size() - free_repair_flights_.size();
  }
  /// Data-integrity state. `corruption_` is forked only when the stochastic
  /// process is enabled (zero draws otherwise); `verify_reads_` also covers
  /// scripted corruption events. Unavailability windows are tracked from
  /// the replica-delta observer whenever faults or corruption are in play.
  std::unique_ptr<faults::CorruptionProcess> corruption_;
  bool verify_reads_ = false;
  bool track_unavailability_ = false;
  sim::EventHandle latent_event_;
  /// By BlockId: blocks whose data loss was already counted.
  std::vector<bool> data_loss_blocks_;
  /// Queue-to-landing repair latency (each entry carries its first-enqueue
  /// time through retries; see RepairScheduler::Entry::enqueued).
  SimDuration repair_latency_total_ = 0;
  /// By BlockId: when the block's open unavailability window opened
  /// (kTimeNever: none is open).
  std::vector<SimTime> unavail_open_;
  SimDuration unavailability_total_ = 0;
  /// One-replica exposure windows (tail risk: the next loss is data loss),
  /// by BlockId as above. Both window tables stay empty until the initial
  /// catalog placement is done, so the 0->1->2 build-up of load_files never
  /// counts as exposure.
  std::vector<SimTime> one_replica_open_;
  SimDuration one_replica_total_ = 0;
  SimDuration detection_latency_total_ = 0;

  /// Static straggler model: per-node duration multiplier (>= 1.0), drawn
  /// at construction from the profile knobs.
  std::vector<double> node_slowdown_;

  /// Stochastic straggler subsystem. `degraded_` is physical truth (the
  /// node is limping); the detection state below is the name node's belief,
  /// inferred from observed attempt durations only.
  std::unique_ptr<faults::StragglerProcess> straggler_process_;
  std::vector<bool> degraded_;
  /// Pending onset *or* recovery event of each node's degrade chain (one in
  /// flight per node); cancelled wholesale once the run finishes.
  std::vector<sim::EventHandle> degrade_event_;

  /// Network-fault subsystem. `netfault_active_` gates every reaction path
  /// (reachability filters, heartbeat loss, the declare-partitioned
  /// relaxation) and is true when either the stochastic process or scripted
  /// partition events are configured; the forked process itself exists only
  /// when options_.netfault.enabled. net::Network owns which racks are
  /// partitioned (physical truth about the interconnect).
  std::unique_ptr<faults::NetworkFaultProcess> netfault_process_;
  bool netfault_active_ = false;
  std::vector<RackId> node_rack_;  ///< cached topology_->rack_of per node
  std::vector<SimTime> rack_partition_start_;
  /// Pending onset *or* end event of each rack's partition / link chains
  /// (one in flight per rack per chain); cancelled once the run finishes.
  std::vector<sim::EventHandle> partition_event_;
  std::vector<sim::EventHandle> link_event_;

  /// Straggler-detection state (see note_attempt_progress /
  /// straggler_decision).
  std::vector<double> progress_ewma_;
  std::vector<std::size_t> progress_samples_;
  std::vector<bool> detected_slow_;
  std::vector<SimTime> slow_until_;
  std::vector<std::size_t> slow_strikes_;

  /// Cloning state. The budget caps how many clone attempts run at once
  /// cluster-wide; per-job counts live in JobRuntime::running_clones.
  std::size_t clone_budget_slots_ = 0;
  std::size_t running_clones_ = 0;
  SimDuration clone_wasted_work_ = 0;

  /// One entry per map task with >= 1 running attempt, keyed by task_key.
  /// Slab-backed: attempt records churn at task rate (one insert/erase per
  /// map launched anywhere in the run), so recycling their nodes through an
  /// arena removes the highest-frequency heap traffic in the simulator.
  std::unordered_map<
      std::uint64_t, MapTaskState, std::hash<std::uint64_t>,
      std::equal_to<std::uint64_t>,
      common::SlabAllocator<std::pair<const std::uint64_t, MapTaskState>>>
      running_maps_;
  /// Running reduce attempts, keyed by a monotonic attempt id (a job can
  /// run several reduces at once). std::map: iterated in key order when a
  /// node death sweeps its attempts, so requeue order is deterministic.
  struct ReduceAttempt {
    JobId job = kInvalidJob;
    NodeId node = kInvalidNode;
    SimTime started = 0;
    bool holds_flow = false;
    NodeId flow_src = kInvalidNode;
    sim::EventHandle completion;
  };
  std::map<std::uint64_t, ReduceAttempt, std::less<std::uint64_t>,
           common::SlabAllocator<std::pair<const std::uint64_t, ReduceAttempt>>>
      running_reduces_;
  std::uint64_t next_reduce_attempt_ = 0;
  /// Cluster-wide completed-map duration statistics: the speculation
  /// estimator's fallback for jobs (e.g. single-map jobs) with no completed
  /// sibling map to estimate from (JobRuntime::completed_map_s).
  std::pair<double, std::size_t> global_map_stats_{0.0, 0};

  /// Map-task durations, accumulated in launch order (Welford). An
  /// accumulator instead of one double per task: O(1) memory at any scale,
  /// bit-identical mean to the vector it replaced.
  OnlineStats map_time_stats_;
  std::vector<double> cv_before_samples_;  ///< static-placement node PIs
  /// Initial-placement file popularity (accesses per file in the workload),
  /// by FileId, snapshot at load time; shared by collect_results and the
  /// sampler.
  std::vector<double> file_popularity_;

  /// Observability (borrowed from options_; null = disabled).
  obs::TraceCollector* tracer_ = nullptr;
  obs::PhaseProfiler* profiler_ = nullptr;
  sim::EventHandle sampler_event_;

  // Scarlett state.
  std::unique_ptr<core::ScarlettPlanner> scarlett_;
  Bytes scarlett_budget_total_ = 0;
  Bytes scarlett_bytes_spent_ = 0;
  /// By FileId: replicas Scarlett added beyond the file's factor.
  std::vector<int> scarlett_extra_replicas_;
  /// The pending epoch, cancelled the moment the run finishes.
  sim::EventHandle scarlett_event_;

  /// Pull-based arrival state: the open job stream (null until run_with
  /// starts, and again once exhausted) and the total number of jobs it will
  /// deliver (the run-completion denominator).
  std::unique_ptr<workload::JobStream> arrivals_;
  /// The one job pulled ahead of its (pending) arrival event.
  workload::JobTemplate next_arrival_;
  std::size_t total_jobs_ = 0;
  /// The run's counters, incremented in place, and the per-job records
  /// (filled by on_job_retired). collect_results() adds the end-of-run
  /// fields and hands it over; the counters stay readable afterwards. The
  /// SimDuration totals above stay integers until collect_results():
  /// summing seconds as doubles would round differently.
  metrics::RunResult result_;
};

}  // namespace dare::cluster
