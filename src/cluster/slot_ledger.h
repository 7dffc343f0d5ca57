// Task-slot bookkeeping for the scheduler sweep.
//
// Per node, the ledger keeps the free map and reduce slot counts plus one
// bit per slot kind, set iff the node has a free slot of that kind. The
// bits let the try_assign_all sweep visit only the nodes where a launch can
// happen: next_free() returns the next node, in index order, with a free
// slot of a kind that has work, a word-sized bit scan instead of one visit
// per node. A saturated 1k-node cluster has its map slots full while its
// reduce slots sit free almost everywhere, so a single any-slot-free set
// would still visit every node; one set per kind does not.
//
// A third bitset holds each node's launch gate: a node is *open* unless it
// is dead, blacklisted, detected slow or behind a partitioned rack uplink.
// The owner derives the bit from those facts and refreshes it wherever one
// changes (set_open); next_free() offers only open nodes, so neither the
// sweep nor clone placement ever visits a node that cannot launch.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/invariant.h"

namespace dare::cluster {

/// Free map/reduce task slots per node plus a free-node bitset per kind
/// and an open-node bitset. Every slot mutation goes through
/// take/give/clear/restore so the free bits can never drift from the
/// counts (validate() audits the invariant, and the open bits against the
/// owner's launch gate).
class SlotLedger {
 public:
  /// (Re)initialize for `nodes` nodes at full per-node capacity.
  void reset(std::size_t nodes, std::size_t map_slots_per_node,
             std::size_t reduce_slots_per_node) {
    map_capacity_ = map_slots_per_node;
    reduce_capacity_ = reduce_slots_per_node;
    free_maps_.assign(nodes, map_slots_per_node);
    free_reduces_.assign(nodes, reduce_slots_per_node);
    fill_bits(map_bits_, nodes, map_slots_per_node > 0);
    fill_bits(reduce_bits_, nodes, reduce_slots_per_node > 0);
    fill_bits(open_bits_, nodes, true);
  }

  std::size_t free_maps(std::size_t node) const { return free_maps_[node]; }
  std::size_t free_reduces(std::size_t node) const {
    return free_reduces_[node];
  }
  std::size_t map_capacity() const { return map_capacity_; }
  std::size_t reduce_capacity() const { return reduce_capacity_; }
  std::size_t nodes() const { return free_maps_.size(); }

  void take_map(std::size_t node) {
    DARE_INVARIANT(free_maps_[node] > 0, "SlotLedger: map slot underflow");
    if (--free_maps_[node] == 0) set_bit(map_bits_, node, false);
  }
  void give_map(std::size_t node) {
    DARE_INVARIANT(free_maps_[node] < map_capacity_,
                   "SlotLedger: map slot overflow");
    if (free_maps_[node]++ == 0) set_bit(map_bits_, node, true);
  }
  void take_reduce(std::size_t node) {
    DARE_INVARIANT(free_reduces_[node] > 0,
                   "SlotLedger: reduce slot underflow");
    if (--free_reduces_[node] == 0) set_bit(reduce_bits_, node, false);
  }
  void give_reduce(std::size_t node) {
    DARE_INVARIANT(free_reduces_[node] < reduce_capacity_,
                   "SlotLedger: reduce slot overflow");
    if (free_reduces_[node]++ == 0) set_bit(reduce_bits_, node, true);
  }

  /// Node death: its free slots leave the pool (busy slots are returned
  /// one-by-one as the attempt sweep cancels them — they go through
  /// give_* only if the node is alive, so a dead node's counts stay 0).
  void clear_node(std::size_t node) {
    free_maps_[node] = 0;
    free_reduces_[node] = 0;
    set_bit(map_bits_, node, false);
    set_bit(reduce_bits_, node, false);
  }

  /// Node rejoin: back to full capacity (a recovered tracker restarts with
  /// empty slots).
  void restore_node(std::size_t node) {
    free_maps_[node] = map_capacity_;
    free_reduces_[node] = reduce_capacity_;
    set_bit(map_bits_, node, map_capacity_ > 0);
    set_bit(reduce_bits_, node, reduce_capacity_ > 0);
  }

  /// The launch gate of `node` (all nodes start open).
  void set_open(std::size_t node, bool open) {
    set_bit(open_bits_, node, open);
  }
  bool open(std::size_t node) const { return bit(open_bits_, node); }

  /// The first open node in [from, end) with a free map slot (when `maps`)
  /// or a free reduce slot (when `reduces`); `end` when there is none.
  std::size_t next_free(std::size_t from, std::size_t end, bool maps,
                        bool reduces) const {
    const std::uint64_t map_mask = maps ? ~std::uint64_t{0} : 0;
    const std::uint64_t reduce_mask = reduces ? ~std::uint64_t{0} : 0;
    for (std::size_t w = from; w < end;) {
      const std::size_t word = w / 64;
      const std::uint64_t bits =
          (((map_bits_[word] & map_mask) |
            (reduce_bits_[word] & reduce_mask)) &
           open_bits_[word]) >>
          (w % 64);
      if (bits != 0) {
        const std::size_t hit = w + static_cast<std::size_t>(
                                        std::countr_zero(bits));
        return hit < end ? hit : end;
      }
      w = (word + 1) * 64;
    }
    return end;
  }

  /// Audit: each node's bits match its counts (cluster validate()).
  bool consistent() const {
    for (std::size_t w = 0; w < free_maps_.size(); ++w) {
      if (bit(map_bits_, w) != (free_maps_[w] > 0) ||
          bit(reduce_bits_, w) != (free_reduces_[w] > 0)) {
        return false;
      }
    }
    return true;
  }

 private:
  /// One bit per node, all set to `on` (bits past the last node stay 0).
  static void fill_bits(std::vector<std::uint64_t>& bits, std::size_t nodes,
                        bool on) {
    bits.assign((nodes + 63) / 64, on ? ~std::uint64_t{0} : 0);
    if (on && nodes % 64 != 0) {
      bits.back() = (std::uint64_t{1} << (nodes % 64)) - 1;
    }
  }
  static bool bit(const std::vector<std::uint64_t>& bits, std::size_t node) {
    return ((bits[node / 64] >> (node % 64)) & 1u) != 0;
  }
  static void set_bit(std::vector<std::uint64_t>& bits, std::size_t node,
                      bool on) {
    const std::uint64_t mask = std::uint64_t{1} << (node % 64);
    if (on) {
      bits[node / 64] |= mask;
    } else {
      bits[node / 64] &= ~mask;
    }
  }

  std::vector<std::size_t> free_maps_;
  std::vector<std::size_t> free_reduces_;
  std::vector<std::uint64_t> map_bits_;
  std::vector<std::uint64_t> reduce_bits_;
  std::vector<std::uint64_t> open_bits_;
  std::size_t map_capacity_ = 0;
  std::size_t reduce_capacity_ = 0;
};

}  // namespace dare::cluster
