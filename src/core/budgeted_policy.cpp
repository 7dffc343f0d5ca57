#include "core/budgeted_policy.h"

#include <string>

#include "common/invariant.h"
#include "obs/trace_collector.h"

namespace dare::core {

double BudgetedPolicy::occupancy() const {
  return budget_ ? static_cast<double>(node_->dynamic_bytes()) /
                       static_cast<double>(budget_)
                 : 0.0;
}

void BudgetedPolicy::skip(BlockId block, obs::SkipReason reason) const {
  if (tracer_ != nullptr) {
    tracer_->replica_skipped(node_->id(), block, reason, occupancy());
  }
}

bool BudgetedPolicy::on_map_task(const storage::BlockMeta& block,
                                 bool local) {
  // The coin gates everything, and nothing runs before it, so the draw
  // sequence is independent of every other outcome (tracing included).
  if (!sample()) {
    if (!local) skip(block.id, obs::SkipReason::kCoinFailed);
    return false;
  }
  if (refresh(block.id)) {
    // On a remote read the replica is already here but not yet visible to
    // the scheduler; the read still counts as a use.
    if (!local) skip(block.id, obs::SkipReason::kAlreadyPresent);
    return false;
  }
  if (local) return false;
  // A tracked replica is never quarantined (quarantine drops it from the
  // policy) and always fits the fixed budget, so refreshing it first above
  // changes no outcome of the checks below.
  if (node_->is_quarantined(block.id)) {
    // A checksum failure burned this node's copy; adoption stays banned
    // until a fresh authoritative copy arrives via re-replication.
    skip(block.id, obs::SkipReason::kQuarantined);
    return false;
  }
  if (block.size > budget_) {  // can never fit
    skip(block.id, obs::SkipReason::kTooLarge);
    return false;
  }
  if (!make_room(block)) {
    skip(block.id, obs::SkipReason::kNoVictim);
    return false;
  }
  if (!node_->insert_dynamic(block)) {
    skip(block.id, obs::SkipReason::kAlreadyPresent);
    return false;
  }
  DARE_INVARIANT(node_->dynamic_bytes() <= budget_,
                 name() + ": budget exceeded after insert on node " +
                     std::to_string(node_->id()));
  track(block);
  ++created_;
  if (tracer_ != nullptr) {
    tracer_->replica_adopted(node_->id(), block.id, occupancy());
  }
  return true;
}

}  // namespace dare::core
