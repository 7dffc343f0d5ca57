// Scheduler strategy interface.
//
// DARE is scheduler-agnostic: the replication policy never talks to the
// scheduler, it only changes which blocks are local where. The two
// strategies the paper evaluates are Hadoop's default FIFO scheduler and the
// Fair scheduler with delay scheduling [Zaharia et al., EuroSys'10].
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.h"
#include "sched/job_table.h"

namespace dare::obs {
class TraceCollector;
}

namespace dare::sched {

/// A map-task selection for a particular node.
struct MapSelection {
  JobId job = kInvalidJob;
  std::size_t pending_index = 0;  ///< index into the job's pending_maps
  Locality locality = Locality::kOffRack;

  bool node_local() const { return locality == Locality::kNodeLocal; }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Pick a map task to launch on `node` at time `now`, or nullopt to leave
  /// the slot idle.
  virtual std::optional<MapSelection> select_map(NodeId node, SimTime now,
                                                 JobTable& jobs) = 0;

  /// Pick a job whose reduce should launch (reduces have no locality).
  virtual std::optional<JobId> select_reduce(JobTable& jobs) = 0;

  virtual std::string name() const = 0;

  /// Attach the structured tracer (null = tracing disabled, the default).
  /// Borrowed pointer; must outlive the scheduler. Tracing only observes —
  /// selections are bit-identical with and without it.
  void set_tracer(obs::TraceCollector* tracer) { tracer_ = tracer; }

  /// Deterministic work counts (reported in metrics::RunResult::work).
  /// Counting only observes, like tracing.
  struct Work {
    std::uint64_t job_probes = 0;    ///< jobs probed for a node (Fair)
    std::uint64_t memo_answers = 0;  ///< offers the decline memo answered
  };
  const Work& work() const { return work_; }

 protected:
  obs::TraceCollector* tracer_ = nullptr;
  Work work_;
};

}  // namespace dare::sched
