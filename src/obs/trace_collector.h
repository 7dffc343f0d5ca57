// TraceCollector: the append-only sink every instrumented component writes
// through. Components hold a raw `TraceCollector*` that is null when tracing
// is disabled; every emission site is guarded by `if (tracer_)`, so the
// disabled path costs one predicted branch and the run stays
// fingerprint-identical either way (tracing only observes, never decides).
//
// Timestamps come from a clock callback (the simulation's now()) injected at
// construction, so emitters never need a Simulation reference and events can
// never carry a wall clock.
//
// Deliberately unsynchronized: one collector belongs to one simulation
// thread (parallel sweeps attach one collector per run), so the hot
// record() path carries no mutex. That single-writer contract is enforced —
// not just documented — in invariant-enabled builds: the first record()
// pins the owning thread and any record() from another thread aborts with
// context. clear() unpins, so drivers may reuse a collector across runs
// that land on different pool workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/types.h"
#include "obs/time_series.h"
#include "obs/trace_event.h"

namespace dare::obs {

class TraceCollector {
 public:
  using Clock = std::function<SimTime()>;

  /// Collector whose clock reads 0 until set_clock rebinds it. This is the
  /// constructor external drivers use: ClusterOptions borrows the collector
  /// and the Cluster rebinds it to its own simulation clock at attach time.
  TraceCollector();

  /// `clock` supplies the simulation time for every event (required).
  explicit TraceCollector(Clock clock);

  /// Rebind the timestamp source (e.g. to a Cluster's simulation clock).
  /// Throws std::invalid_argument on a null clock.
  void set_clock(Clock clock);

  /// Append one event stamped with clock(). The typed emitters below are
  /// thin wrappers that document the field mapping; prefer them.
  void record(EventKind kind, NodeId node, JobId job = kInvalidJob,
              std::int64_t task = -1, std::int64_t detail = 0,
              double value = 0.0);

  // --- task lifecycle -----------------------------------------------------
  void job_submitted(JobId job, std::size_t maps, std::size_t reduces);
  void map_launched(NodeId node, JobId job, std::size_t map_index,
                    int locality, bool speculative);
  void map_finished(NodeId node, JobId job, std::size_t map_index,
                    double duration_s, bool speculative_won);
  void map_killed(NodeId node, JobId job, std::size_t map_index);
  void map_requeued(NodeId node, JobId job, std::size_t map_index);
  void reduce_launched(NodeId node, JobId job, std::int64_t attempt);
  void reduce_finished(NodeId node, JobId job, std::int64_t attempt,
                       double duration_s);
  void reduce_requeued(NodeId node, JobId job, std::int64_t attempt);
  void job_finished(JobId job, double turnaround_s);
  void job_failed(JobId job);
  void task_attempt_fault(NodeId node, JobId job, std::int64_t task);

  // --- replication decisions (remote reads only) --------------------------
  void replica_adopted(NodeId node, BlockId block, double budget_occupancy);
  void replica_skipped(NodeId node, BlockId block, SkipReason reason,
                       double budget_occupancy);
  void replica_evicted(NodeId node, BlockId victim, double access_count,
                       std::size_t aging_passes);

  // --- storage / membership ----------------------------------------------
  void disk_reclaim(NodeId node, std::size_t replicas_reclaimed);
  void heartbeat(NodeId node);
  void node_failed(NodeId node, int fault_kind, double downtime_s);
  void node_declared_dead(NodeId node);
  void node_rejoined(NodeId node, bool full_reregistration);
  void block_repaired(NodeId node, BlockId block);

  // --- data integrity -----------------------------------------------------
  void replica_corrupted(NodeId node, BlockId block);
  void checksum_failed(NodeId node, BlockId block);
  void replica_quarantined(NodeId node, BlockId block);
  void data_loss(BlockId block);

  // --- stragglers & cloning -----------------------------------------------
  void node_degraded(NodeId node, bool rack_correlated,
                     double compute_slowdown);
  void node_degrade_ended(NodeId node);
  void straggler_detected(NodeId node, double ewma_ratio);
  void straggler_cleared(NodeId node);
  void clone_launched(NodeId node, JobId job, std::size_t map_index,
                      int locality);
  void clone_killed(NodeId node, JobId job, std::size_t map_index);

  // --- network faults & prioritized repair --------------------------------
  void link_degraded(RackId rack, double duration_s);
  void partition_started(RackId rack, double duration_s);
  void partition_healed(RackId rack);
  void repair_retried(BlockId block, std::size_t retries);
  void repair_preempted(BlockId block);

  // --- scheduler ----------------------------------------------------------
  void scheduler_decision(NodeId node, JobId job, int locality,
                          double waited_s);
  void delay_wait(NodeId node, JobId job);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  TimeSeries& series() { return series_; }
  const TimeSeries& series() const { return series_; }

  /// Drop all collected events and samples (reuse across runs).
  void clear();

 private:
  Clock clock_;
  std::vector<TraceEvent> events_;
  TimeSeries series_;
  /// First thread to record(); default-constructed means unpinned. Checked
  /// only in invariant-enabled builds (see header comment).
  std::thread::id owner_;
};

}  // namespace dare::obs
