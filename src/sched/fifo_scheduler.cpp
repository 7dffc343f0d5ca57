#include "sched/fifo_scheduler.h"

#include "obs/trace_collector.h"

namespace dare::sched {

std::optional<MapSelection> FifoScheduler::select_map(NodeId node,
                                                      SimTime /*now*/,
                                                      JobTable& jobs) {
  // FIFO never declines: it always launches from the oldest job with
  // pending maps, so only that job needs probing (the map-ready set's first
  // element, instead of an O(active jobs) walk past the reduce-phase
  // prefix). Hadoop's tiered preference within the head job: node-local,
  // then rack-local, then any — but never wait.
  const auto& ready = jobs.map_ready();
  if (ready.empty()) return std::nullopt;
  const JobRuntime& rt = *ready.begin()->second;
  const JobId id = rt.spec.id;
  if (const auto local = jobs.find_local_map(rt, node)) {
    if (tracer_ != nullptr) {
      tracer_->scheduler_decision(
          node, id, static_cast<int>(Locality::kNodeLocal), 0.0);
    }
    return MapSelection{id, *local, Locality::kNodeLocal};
  }
  if (const auto rack = jobs.find_rack_local_map(rt, node)) {
    if (tracer_ != nullptr) {
      tracer_->scheduler_decision(
          node, id, static_cast<int>(Locality::kRackLocal), 0.0);
    }
    return MapSelection{id, *rack, Locality::kRackLocal};
  }
  if (tracer_ != nullptr) {
    tracer_->scheduler_decision(node, id,
                                static_cast<int>(Locality::kOffRack), 0.0);
  }
  return MapSelection{id, 0, Locality::kOffRack};
}

std::optional<JobId> FifoScheduler::select_reduce(JobTable& jobs) {
  // The ready set is keyed by arrival_seq, so its first element is the
  // oldest job with launchable reduces.
  const auto& ready = jobs.reduce_ready();
  if (ready.empty()) return std::nullopt;
  return ready.begin()->second->spec.id;
}

}  // namespace dare::sched
