// Hadoop's default FIFO scheduler (JobQueueTaskScheduler).
//
// Jobs are served strictly in arrival order: the first job with pending
// maps supplies the task. Within that job the scheduler prefers a map whose
// input block is local to the requesting node, but — crucially for the
// paper's motivation — it never waits: if the head job has no local work for
// this node, a non-local map is launched immediately. With small jobs this
// yields the poor baseline locality of Fig. 7a.
#pragma once

#include "sched/scheduler.h"

namespace dare::sched {

class FifoScheduler final : public Scheduler {
 public:
  std::optional<MapSelection> select_map(NodeId node, SimTime now,
                                         JobTable& jobs) override;
  std::optional<JobId> select_reduce(JobTable& jobs) override;
  std::string name() const override { return "fifo"; }
};

}  // namespace dare::sched
