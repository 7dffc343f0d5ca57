// Two-class prioritized re-replication queue (replaces the PR 5 FIFO
// `std::deque<BlockId>`; modeled on SLASH2's upsch work queues, see
// ROADMAP "multi-datacenter" item).
//
// Every queued block carries a class: *critical* (down to its last live
// reachable replica — one more loss is data loss) or *bulk* (merely under
// target). Under the prioritized policy criticals drain strictly before
// bulk entries are admitted; under the FIFO policy arrival order rules and
// the class is bookkeeping only (the A/B axis of `bench_netfault`). Either
// way the queue holds each block at most once — a membership index dedups
// re-enqueues, so replicas dying in quick succession no longer burn
// `rereplication_batch` slots on no-op repairs — and ordering is fully
// deterministic: (class, first-enqueue time, BlockId) when prioritized,
// first-enqueue sequence number when FIFO.
//
// Retry state rides with the entry: a repair whose source is unreachable
// (or whose transfer is severed mid-flight) is re-inserted with an
// exponential-backoff `ready` time instead of being dropped; the tick
// skips not-ready entries without consuming its batch budget. The
// scheduler itself is pure data structure — admission (uplink caps,
// preemption, the retry policy) lives in Cluster::rereplication_tick.
//
// The tick walks the queue in place (a *pass*): it visits entries in
// priority order and removes only the ones it consumes, so a deferred entry
// (backing off, preempted or uplink-blocked) costs one visit, not an erase
// and a reinsert. A consumed block re-queued during the pass (a retry, or a
// fresh enqueue after a bad source read) that sorts before the cursor is
// the pass's next visit. The pass therefore visits exactly what repeated
// pop-the-front calls would, with the deferred entries held aside until
// the tick ends.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace dare::cluster {

/// Urgency of a queued repair. Lower enum value = drains first.
enum class RepairClass : std::uint8_t {
  kCritical = 0,  ///< one live reachable replica left; next loss is forever
  kBulk = 1,      ///< under the replication target but not in danger
};

/// Ordering discipline of the repair queue (bench A/B axis).
enum class RepairPolicy : std::uint8_t {
  kFifo,         ///< arrival order, classes recorded but ignored
  kPrioritized,  ///< (class, enqueue time, BlockId); critical preempts bulk
};

class RepairScheduler {
 public:
  struct Entry {
    BlockId block = 0;
    RepairClass cls = RepairClass::kBulk;
    /// First-enqueue time; preserved across retries so starvation is
    /// impossible (an old entry only ever gains priority).
    SimTime enqueued = 0;
    /// First-enqueue sequence number; the FIFO policy's ordering key.
    std::uint64_t seq = 0;
    /// Backoff gate: the tick defers the entry while now < ready.
    SimTime ready = 0;
    /// Retryable failures so far (drives the exponential backoff).
    std::uint32_t retries = 0;
    /// A tick has preempted this entry (the trace records only the first
    /// preemption). Not an ordering key, so a queued entry may set it.
    mutable bool preempted = false;
  };

  explicit RepairScheduler(RepairPolicy policy);

  /// Queue `block` for repair. Returns true when the block was newly
  /// enqueued; false when it was already queued (the dedup guard) — in
  /// that case a critical `cls` upgrades a queued bulk entry in place
  /// (original enqueue time and sequence kept).
  bool enqueue(BlockId block, RepairClass cls, SimTime now);

  /// Is `block` currently queued? (Taken/in-flight blocks are not.)
  bool contains(BlockId block) const;

  /// Start a pass over the queue in priority order (see the file comment).
  /// During a pass only the block of the entry just taken may be re-queued.
  void begin_pass();
  /// The pass's next entry, or nullptr once it has visited them all. The
  /// entry stays queued (deferred) unless the caller take()s it before the
  /// next call; readiness is the caller's concern.
  const Entry* next_in_pass();
  /// Remove and return the entry next_in_pass() just returned (the caller
  /// starts, abandons or retries its repair).
  Entry take();
  /// Mark the entry next_in_pass() just returned as preempted; true the
  /// first time for this entry.
  bool mark_preempted();
  void end_pass() { in_pass_ = false; }

  /// Put a taken entry back (retry). The caller adjusts ready / retries /
  /// cls first; enqueued and seq must be preserved. Throws if the block is
  /// already queued (a taken entry has no twin by construction).
  void reinsert(const Entry& entry);

  /// Remove every entry, in priority order (run teardown closes them out
  /// as abandoned so the repair ledger balances).
  std::vector<Entry> drain();

  std::size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }
  RepairPolicy policy() const { return policy_; }

  /// Audit for Cluster::validate(): membership index and queue agree.
  bool consistent() const;

 private:
  struct Cmp {
    RepairPolicy policy;
    bool operator()(const Entry& a, const Entry& b) const {
      if (policy == RepairPolicy::kPrioritized) {
        if (a.cls != b.cls) return a.cls < b.cls;
        if (a.enqueued != b.enqueued) return a.enqueued < b.enqueued;
        return a.block < b.block;
      }
      return a.seq < b.seq;
    }
  };

  using Queue = std::set<Entry, Cmp>;

  void insert(const Entry& entry);

  RepairPolicy policy_;
  std::uint64_t next_seq_ = 0;
  Queue queue_;
  std::unordered_map<BlockId, Queue::iterator> queued_;
  /// The pass: `cursor_` is the next entry in order; every entry before it
  /// was visited and deferred, except `jump_`, an entry re-queued before
  /// the cursor and not yet visited (end() when none). `visit_` is the
  /// entry next_in_pass() last returned.
  bool in_pass_ = false;
  Queue::iterator cursor_;
  Queue::iterator jump_;
  Queue::iterator visit_;
};

}  // namespace dare::cluster
