#include "cluster/experiment.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace dare::cluster {

ClusterOptions paper_defaults(const net::ClusterProfile& profile,
                              SchedulerKind scheduler, PolicyKind policy,
                              std::uint64_t seed) {
  ClusterOptions options;
  options.profile = profile;
  options.scheduler = scheduler;
  options.policy = policy;
  options.budget_fraction = 0.2;
  options.trap.p = 0.3;
  options.trap.threshold = 1;
  options.seed = seed;
  return options;
}

SchedulerKind parse_scheduler(const std::string& name) {
  if (name == "fifo" || name == "FIFO") return SchedulerKind::kFifo;
  if (name == "fair" || name == "Fair") return SchedulerKind::kFair;
  throw std::invalid_argument("unknown scheduler: " + name);
}

PolicyKind parse_policy(const std::string& name) {
  if (name == "vanilla" || name == "none") return PolicyKind::kVanilla;
  if (name == "lru" || name == "greedy-lru") return PolicyKind::kGreedyLru;
  if (name == "lfu" || name == "greedy-lfu") return PolicyKind::kGreedyLfu;
  if (name == "elephant-trap" || name == "et" || name == "trap") {
    return PolicyKind::kElephantTrap;
  }
  throw std::invalid_argument("unknown policy: " + name);
}

const std::vector<std::string>& override_keys() {
  static const std::vector<std::string> keys = {
      "backoff_s",      "bandwidth_cut",       "bitrot_per_gb",
      "blacklist_threshold", "budget",         "clone_budget",
      "clone_max_maps", "cloning",             "compute_slowdown",
      "connect_timeout_s",   "corruption",
      "degrade_duration_s", "degrade_mtbf_s",  "degrade_rack_correlation",
      "detect_min_samples", "detect_missed",   "detect_ratio",
      "detect_stragglers",  "disk_slowdown",   "fair_delay_ms",
      "faults",         "heartbeat_s",         "latency_inflation",
      "link_duration_s",    "link_mtbf_s",     "map_slots",
      "max_attempts",   "min_live_workers",    "mtbf_s",
      "mttr_s",         "netfault",            "nodes",
      "p",              "part_duration_s",     "part_mtbf_s",
      "permanent_fraction", "policy",          "profile",
      "rack_correlation",   "reduce_slots",    "repair_backoff_s",
      "repair_policy",  "repairs_per_uplink",  "scheduler",
      "sector_mtbf_s",      "seed",            "stragglers",
      "tail_alpha",     "tail_cap",            "tail_prob",
      "task_failure_prob",  "threshold"};
  return keys;
}

std::vector<std::string> override_keys_for(
    const std::vector<std::string>& own,
    const std::vector<std::string>& overwritten) {
  std::vector<std::string> keys = own;
  for (const auto& key : override_keys()) {
    if (std::find(overwritten.begin(), overwritten.end(), key) ==
        overwritten.end()) {
      keys.push_back(key);
    }
  }
  return keys;
}

ClusterOptions apply_overrides(ClusterOptions options, const Config& cfg) {
  if (cfg.contains("profile") || cfg.contains("nodes")) {
    const std::string profile =
        cfg.get_string("profile", options.profile.name);
    const auto nodes = cfg.get_count("nodes", options.profile.topology.nodes);
    if (profile == "cct") {
      options.profile = net::cct_profile(nodes);
    } else if (profile == "ec2") {
      options.profile = net::ec2_profile(nodes);
    } else {
      throw std::invalid_argument("unknown profile: " + profile);
    }
  }
  if (cfg.contains("scheduler")) {
    options.scheduler = parse_scheduler(cfg.get_string("scheduler", ""));
  }
  if (cfg.contains("policy")) {
    options.policy = parse_policy(cfg.get_string("policy", ""));
  }
  options.trap.p = cfg.get_double("p", options.trap.p);
  options.trap.threshold = cfg.get_count("threshold", options.trap.threshold);
  options.budget_fraction = cfg.get_double("budget", options.budget_fraction);
  options.map_slots_per_node =
      cfg.get_count("map_slots", options.map_slots_per_node);
  options.reduce_slots_per_node =
      cfg.get_count("reduce_slots", options.reduce_slots_per_node);
  if (cfg.contains("heartbeat_s")) {
    options.heartbeat_interval =
        from_seconds(cfg.get_double("heartbeat_s", 3.0));
  }
  if (cfg.contains("fair_delay_ms")) {
    options.fair_delay = from_millis(cfg.get_double("fair_delay_ms", 500.0));
  }
  options.faults.enabled = cfg.get_bool("faults", options.faults.enabled);
  options.faults.mtbf_s = cfg.get_double("mtbf_s", options.faults.mtbf_s);
  options.faults.mttr_s = cfg.get_double("mttr_s", options.faults.mttr_s);
  options.faults.permanent_fraction =
      cfg.get_double("permanent_fraction", options.faults.permanent_fraction);
  options.faults.rack_correlation =
      cfg.get_double("rack_correlation", options.faults.rack_correlation);
  options.faults.task_failure_prob =
      cfg.get_double("task_failure_prob", options.faults.task_failure_prob);
  options.faults.min_live_workers =
      cfg.get_count("min_live_workers", options.faults.min_live_workers);
  options.corruption.enabled =
      cfg.get_bool("corruption", options.corruption.enabled);
  options.corruption.bitrot_per_gb =
      cfg.get_double("bitrot_per_gb", options.corruption.bitrot_per_gb);
  options.corruption.sector_mtbf_s =
      cfg.get_double("sector_mtbf_s", options.corruption.sector_mtbf_s);
  options.stragglers.enabled =
      cfg.get_bool("stragglers", options.stragglers.enabled);
  options.stragglers.degrade_mtbf_s =
      cfg.get_double("degrade_mtbf_s", options.stragglers.degrade_mtbf_s);
  options.stragglers.degrade_duration_s = cfg.get_double(
      "degrade_duration_s", options.stragglers.degrade_duration_s);
  options.stragglers.compute_slowdown =
      cfg.get_double("compute_slowdown", options.stragglers.compute_slowdown);
  options.stragglers.disk_slowdown =
      cfg.get_double("disk_slowdown", options.stragglers.disk_slowdown);
  options.stragglers.rack_correlation = cfg.get_double(
      "degrade_rack_correlation", options.stragglers.rack_correlation);
  options.stragglers.tail_prob =
      cfg.get_double("tail_prob", options.stragglers.tail_prob);
  options.stragglers.tail_alpha =
      cfg.get_double("tail_alpha", options.stragglers.tail_alpha);
  options.stragglers.tail_cap =
      cfg.get_double("tail_cap", options.stragglers.tail_cap);
  options.enable_straggler_detection = cfg.get_bool(
      "detect_stragglers", options.enable_straggler_detection);
  options.straggler_detect_ratio =
      cfg.get_double("detect_ratio", options.straggler_detect_ratio);
  options.straggler_detect_min_samples = cfg.get_count(
      "detect_min_samples", options.straggler_detect_min_samples);
  if (cfg.contains("backoff_s")) {
    options.straggler_backoff =
        from_seconds(cfg.get_double("backoff_s", 30.0));
  }
  options.netfault.enabled =
      cfg.get_bool("netfault", options.netfault.enabled);
  options.netfault.partition_mtbf_s =
      cfg.get_double("part_mtbf_s", options.netfault.partition_mtbf_s);
  options.netfault.partition_duration_s =
      cfg.get_double("part_duration_s", options.netfault.partition_duration_s);
  options.netfault.link_degrade_mtbf_s =
      cfg.get_double("link_mtbf_s", options.netfault.link_degrade_mtbf_s);
  options.netfault.link_degrade_duration_s = cfg.get_double(
      "link_duration_s", options.netfault.link_degrade_duration_s);
  options.netfault.bandwidth_cut =
      cfg.get_double("bandwidth_cut", options.netfault.bandwidth_cut);
  options.netfault.latency_inflation =
      cfg.get_double("latency_inflation", options.netfault.latency_inflation);
  options.netfault.connect_timeout_s =
      cfg.get_double("connect_timeout_s", options.netfault.connect_timeout_s);
  if (cfg.contains("repair_policy")) {
    const std::string policy = cfg.get_string("repair_policy", "");
    if (policy == "fifo") {
      options.repair_policy = RepairPolicy::kFifo;
    } else if (policy == "prioritized") {
      options.repair_policy = RepairPolicy::kPrioritized;
    } else {
      throw std::invalid_argument("unknown repair_policy: " + policy);
    }
  }
  options.max_repairs_per_uplink =
      cfg.get_count("repairs_per_uplink", options.max_repairs_per_uplink);
  if (cfg.contains("repair_backoff_s")) {
    options.repair_retry_backoff =
        from_seconds(cfg.get_double("repair_backoff_s", 5.0));
  }
  options.enable_task_cloning =
      cfg.get_bool("cloning", options.enable_task_cloning);
  options.clone_budget_fraction =
      cfg.get_double("clone_budget", options.clone_budget_fraction);
  options.clone_job_max_maps =
      cfg.get_count("clone_max_maps", options.clone_job_max_maps);
  options.detection_missed_heartbeats =
      cfg.get_count("detect_missed", options.detection_missed_heartbeats);
  options.max_task_attempts =
      cfg.get_count("max_attempts", options.max_task_attempts);
  options.node_blacklist_threshold =
      cfg.get_count("blacklist_threshold", options.node_blacklist_threshold);
  options.seed = cfg.get_count("seed", options.seed);
  return options;
}

metrics::RunResult run_once(const ClusterOptions& options,
                            const workload::Workload& workload) {
  Cluster cluster(options);
  return cluster.run(workload);
}

namespace {

workload::WorkloadOptions scaled_options(std::size_t total_nodes,
                                         std::size_t num_jobs,
                                         std::uint64_t seed) {
  workload::WorkloadOptions wopts;
  wopts.num_jobs = num_jobs;
  wopts.seed = seed;
  // Keep per-worker offered load comparable across cluster sizes: a bigger
  // cluster absorbs the same job stream faster, so arrivals speed up
  // proportionally (the paper replays the same trace on both clusters; its
  // 100-node cluster is correspondingly less loaded per node, which we
  // mirror with a gentler scaling exponent). Degenerate sizes need a guard:
  // total_nodes counts the master, so a 0- or 1-node cluster has no workers
  // and the unclamped 19/(n-1) is inf (n == 1) or ~0 via size_t wraparound
  // (n == 0); both clamp to the single-worker scale.
  const double workers =
      total_nodes > 1 ? static_cast<double>(total_nodes - 1) : 1.0;
  const double scale = std::max(0.35, 19.0 / workers);
  wopts.small_interarrival_s *= scale;
  wopts.burst_interarrival_s *= scale;
  return wopts;
}

}  // namespace

workload::Workload standard_wl1(std::size_t total_nodes, std::size_t num_jobs,
                                std::uint64_t seed) {
  return workload::make_wl1(scaled_options(total_nodes, num_jobs, seed));
}

workload::Workload standard_wl2(std::size_t total_nodes, std::size_t num_jobs,
                                std::uint64_t seed) {
  auto wopts = scaled_options(total_nodes, num_jobs, seed);
  // wl2's baseline stream is calmer than wl1's, but each large job floods
  // the cluster and is followed by a burst of small jobs.
  wopts.small_interarrival_s *= 2.0;
  return workload::make_wl2(wopts);
}

}  // namespace dare::cluster
