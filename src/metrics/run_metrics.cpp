#include "metrics/run_metrics.h"

#include <bit>
#include <stdexcept>

#include "common/stats.h"

namespace dare::metrics {

void finalize(RunResult& result, const std::vector<double>& map_times_s) {
  OnlineStats map_stats;
  for (double t : map_times_s) map_stats.add(t);
  finalize(result, map_stats);
}

void finalize(RunResult& result, const OnlineStats& map_time_stats) {
  std::size_t total_maps = 0;
  std::size_t local_maps = 0;
  std::size_t rack_maps = 0;
  std::vector<double> turnarounds;
  turnarounds.reserve(result.jobs.size());
  double slowdown_sum = 0.0;
  std::size_t succeeded = 0;
  for (const auto& job : result.jobs) {
    // Failed jobs are terminally accounted (completion = kill time) but
    // excluded from the performance aggregates: a truncated turnaround
    // would make a churn-heavy run look artificially fast.
    if (job.failed) continue;
    ++succeeded;
    total_maps += job.maps;
    local_maps += job.local_maps;
    rack_maps += job.rack_local_maps;
    turnarounds.push_back(job.turnaround_s());
    slowdown_sum += job.slowdown();
  }
  result.locality = total_maps ? static_cast<double>(local_maps) /
                                     static_cast<double>(total_maps)
                               : 0.0;
  result.rack_locality =
      total_maps ? static_cast<double>(local_maps + rack_maps) /
                       static_cast<double>(total_maps)
                 : 0.0;
  std::size_t gmtt_skipped = 0;
  result.gmtt_s = geometric_mean(turnarounds, &gmtt_skipped);
  result.gmtt_skipped_jobs = static_cast<std::uint64_t>(gmtt_skipped);
  result.mean_slowdown =
      succeeded == 0 ? 0.0 : slowdown_sum / static_cast<double>(succeeded);
  result.mean_detection_latency_s =
      result.failures_detected == 0
          ? 0.0
          : result.detection_latency_total_s /
                static_cast<double>(result.failures_detected);
  result.mean_repair_latency_s =
      result.rereplicated_blocks == 0
          ? 0.0
          : result.repair_latency_total_s /
                static_cast<double>(result.rereplicated_blocks);
  result.mean_map_time_s = map_time_stats.mean();
  result.blocks_created_per_job =
      result.jobs.empty()
          ? 0.0
          : static_cast<double>(result.dynamic_replicas_created) /
                static_cast<double>(result.jobs.size());
}

double popularity_index(const std::vector<Bytes>& block_sizes,
                        const std::vector<double>& block_popularity) {
  if (block_sizes.size() != block_popularity.size()) {
    throw std::invalid_argument("popularity_index: size mismatch");
  }
  double pi = 0.0;
  for (std::size_t i = 0; i < block_sizes.size(); ++i) {
    pi += static_cast<double>(block_sizes[i]) * block_popularity[i];
  }
  return pi;
}

namespace {

/// FNV-1a over explicit 64-bit words: field widths are pinned here (rather
/// than hashing struct bytes) so padding and layout changes never alter the
/// digest semantics.
class Digest {
 public:
  void mix(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void mix(double value) { mix(std::bit_cast<std::uint64_t>(value)); }
  void mix_i(std::int64_t value) {
    mix(static_cast<std::uint64_t>(value));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;  // FNV offset basis
};

}  // namespace

std::uint64_t fingerprint(const RunResult& result) {
  Digest d;
  d.mix(static_cast<std::uint64_t>(result.jobs.size()));
  for (const auto& job : result.jobs) {
    d.mix_i(job.id);
    d.mix_i(job.arrival);
    d.mix_i(job.completion);
    d.mix(static_cast<std::uint64_t>(job.maps));
    d.mix(static_cast<std::uint64_t>(job.local_maps));
    d.mix(static_cast<std::uint64_t>(job.rack_local_maps));
    d.mix(job.dedicated_runtime_s);
    d.mix(static_cast<std::uint64_t>(job.failed ? 1 : 0));
  }
  d.mix(result.locality);
  d.mix(result.rack_locality);
  d.mix(result.gmtt_s);
  // Mixed only when nonzero: digests recorded before this field existed
  // (the paper cells in BENCH_PR8.json) stay valid for runs where no
  // turnaround is skipped, while any run that does skip jobs is
  // distinguishable.
  if (result.gmtt_skipped_jobs != 0) d.mix(result.gmtt_skipped_jobs);
  d.mix(result.mean_slowdown);
  d.mix(result.mean_map_time_s);
  d.mix(result.dynamic_replicas_created);
  d.mix(result.dynamic_replica_disk_writes);
  d.mix(result.blocks_created_per_job);
  d.mix(result.proactive_replication_bytes);
  d.mix(result.task_reexecutions);
  d.mix(result.rereplicated_blocks);
  d.mix(result.blocks_lost);
  d.mix(result.node_failures);
  d.mix(result.transient_failures);
  d.mix(result.permanent_failures);
  d.mix(result.failures_detected);
  d.mix(result.detection_latency_total_s);
  d.mix(result.mean_detection_latency_s);
  d.mix(result.node_rejoins);
  d.mix(result.overreplication_prunes);
  d.mix(result.task_attempt_failures);
  d.mix(result.failed_jobs);
  d.mix(result.blacklisted_nodes);
  // Data-integrity fields follow the gmtt_skipped_jobs convention: mixed
  // only when nonzero so the no-corruption digests committed in
  // BENCH_PR8.json's paper cells stay valid, while any corrupted run is
  // distinguishable.
  if (result.corrupt_reads != 0) d.mix(result.corrupt_reads);
  if (result.corrupt_replicas != 0) d.mix(result.corrupt_replicas);
  if (result.replicas_quarantined != 0) d.mix(result.replicas_quarantined);
  if (result.data_loss_events != 0) d.mix(result.data_loss_events);
  if (result.repair_latency_total_s != 0.0) {
    d.mix(result.repair_latency_total_s);
  }
  if (result.mean_repair_latency_s != 0.0) d.mix(result.mean_repair_latency_s);
  if (result.unavailability_windows != 0) d.mix(result.unavailability_windows);
  if (result.unavailability_total_s != 0.0) {
    d.mix(result.unavailability_total_s);
  }
  d.mix(result.speculative_launched);
  d.mix(result.speculative_wins);
  d.mix(result.speculative_killed);
  // Straggler and cloning fields follow the same only-when-nonzero rule:
  // digests committed before this subsystem existed stay valid for runs
  // that never degrade, detect, or clone.
  if (result.degraded_onsets != 0) d.mix(result.degraded_onsets);
  if (result.degraded_recoveries != 0) d.mix(result.degraded_recoveries);
  if (result.tail_inflations != 0) d.mix(result.tail_inflations);
  if (result.stragglers_detected != 0) d.mix(result.stragglers_detected);
  if (result.straggler_readmissions != 0) {
    d.mix(result.straggler_readmissions);
  }
  if (result.clones_launched != 0) d.mix(result.clones_launched);
  if (result.clone_wins != 0) d.mix(result.clone_wins);
  if (result.clones_killed != 0) d.mix(result.clones_killed);
  if (result.clone_wasted_work_s != 0.0) d.mix(result.clone_wasted_work_s);
  // Network-fault and repair-ledger fields, same only-when-nonzero rule:
  // the quiet paper cells of BENCH_PR8.json never partition, never degrade
  // a link, and never queue a repair, so their committed digests survive
  // both the new subsystem and the repair-queue replacement.
  if (result.partition_episodes != 0) d.mix(result.partition_episodes);
  if (result.partitions_healed != 0) d.mix(result.partitions_healed);
  if (result.link_degrade_episodes != 0) d.mix(result.link_degrade_episodes);
  if (result.unreachable_reads != 0) d.mix(result.unreachable_reads);
  if (result.repairs_enqueued != 0) d.mix(result.repairs_enqueued);
  if (result.repairs_landed != 0) d.mix(result.repairs_landed);
  if (result.repairs_abandoned != 0) d.mix(result.repairs_abandoned);
  if (result.repair_retries != 0) d.mix(result.repair_retries);
  if (result.repair_timeouts != 0) d.mix(result.repair_timeouts);
  if (result.repair_preemptions != 0) d.mix(result.repair_preemptions);
  if (result.one_replica_windows != 0) d.mix(result.one_replica_windows);
  if (result.one_replica_total_s != 0.0) d.mix(result.one_replica_total_s);
  d.mix(result.cv_before);
  d.mix(result.cv_after);
  d.mix_i(result.makespan);
  return d.value();
}

}  // namespace dare::metrics
