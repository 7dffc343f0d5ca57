// Experiment harness helpers shared by the driver binaries: standard option
// builders for the paper's configurations, command-line overrides, and the
// standard workloads. Sweeps run on the engine in farm.h.
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/options.h"
#include "common/config.h"
#include "metrics/run_metrics.h"
#include "workload/workload.h"

namespace dare::cluster {

/// The paper's standard DARE parameters for headline experiments
/// (Figs. 7, 10): ElephantTrap with p = 0.3, threshold = 1, budget = 0.2.
ClusterOptions paper_defaults(const net::ClusterProfile& profile,
                              SchedulerKind scheduler, PolicyKind policy,
                              std::uint64_t seed = 42);

/// Apply `key=value` overrides to cluster options. Recognized keys mirror
/// the Hadoop-style knobs the paper's patch adds plus the simulator's own:
///   profile=cct|ec2          nodes=<n>           seed=<n>
///   scheduler=fifo|fair      policy=vanilla|lru|lfu|elephant-trap
///   p=<0..1>                 threshold=<n>       budget=<0..1>
///   map_slots=<n>            reduce_slots=<n>
///   heartbeat_s=<sec>        fair_delay_ms=<ms>
///   faults=0|1 mtbf_s= mttr_s= permanent_fraction= rack_correlation=
///   task_failure_prob= min_live_workers= detect_missed= max_attempts=
///   blacklist_threshold=
///   corruption=0|1           bitrot_per_gb=<rate> sector_mtbf_s=<sec>
///   stragglers=0|1 degrade_mtbf_s= degrade_duration_s= compute_slowdown=
///   disk_slowdown= degrade_rack_correlation= tail_prob= tail_alpha=
///   tail_cap=
///   detect_stragglers=0|1 detect_ratio= detect_min_samples= backoff_s=
///   cloning=0|1 clone_budget=<0..1> clone_max_maps=<n>
///   netfault=0|1 part_mtbf_s= part_duration_s= link_mtbf_s=
///   link_duration_s= bandwidth_cut= latency_inflation= connect_timeout_s=
///   repair_policy=fifo|prioritized repairs_per_uplink=<n>
///   repair_backoff_s=<sec>
/// Unknown keys are ignored (they may belong to the workload or harness).
/// Throws std::invalid_argument on unparsable values for known keys, and on
/// a negative or out-of-range value for a count key (nodes, threshold,
/// map_slots, reduce_slots, min_live_workers, detect_min_samples,
/// repairs_per_uplink, clone_max_maps, detect_missed, max_attempts,
/// blacklist_threshold). Range checks on the other knobs happen when a
/// Cluster is constructed from the options.
ClusterOptions apply_overrides(ClusterOptions options, const Config& cfg);

/// Every key apply_overrides recognizes, sorted. A driver that applies the
/// overrides accepts these on its command line (minus any it overwrites
/// afterwards), so a typo'd knob fails loudly instead of being ignored.
const std::vector<std::string>& override_keys();

/// The command-line keys of a driver that applies the overrides: the
/// driver's `own` keys plus override_keys() minus `overwritten`, the knobs
/// the driver sets itself after applying them (accepting those would let a
/// key change nothing).
std::vector<std::string> override_keys_for(
    const std::vector<std::string>& own,
    const std::vector<std::string>& overwritten = {});

/// Parse the scheduler / policy names used by apply_overrides.
SchedulerKind parse_scheduler(const std::string& name);
PolicyKind parse_policy(const std::string& name);

/// Construct a cluster and run the workload (one-shot convenience).
metrics::RunResult run_once(const ClusterOptions& options,
                            const workload::Workload& workload);

/// Standard workloads at paper scale for a given cluster size: arrival
/// rates are scaled so per-worker load stays comparable between the 20-node
/// CCT and 100-node EC2 configurations.
workload::Workload standard_wl1(std::size_t total_nodes, std::size_t num_jobs,
                                std::uint64_t seed = 1);
workload::Workload standard_wl2(std::size_t total_nodes, std::size_t num_jobs,
                                std::uint64_t seed = 2);

}  // namespace dare::cluster
