// Extending DARE: writing your own replication policy against the public
// `core::ReplicationPolicy` interface and evaluating it inside the
// simulator's storage layer. A policy that adopts remote reads under a
// byte budget and evicts to make room should derive from
// `core::BudgetedPolicy` (core/budgeted_policy.h) instead and supply only
// its hooks (sample, refresh, make_room, track); the naive policy below
// stays on the bare interface because it never evicts.
//
// The example implements a naive "first-K" policy — replicate the first K
// distinct remotely-read blocks and never evict — and compares it with the
// paper's policies at equal budget, driving all of them with the same
// synthetic access stream. It demonstrates why admission control *and*
// eviction both matter: first-K fills its budget with whatever arrived
// first, which on a heavy-tailed stream is mostly one-off cold data.
//
// Usage: custom_policy [accesses=N] [budget_blocks=N] [seed=N]
#include <iostream>
#include <memory>

#include "common/config.h"
#include "common/distributions.h"
#include "common/table.h"
#include "core/elephant_trap.h"
#include "core/greedy_lru.h"
#include "net/profile.h"

namespace {

using namespace dare;

/// A deliberately naive policy: trap the first K blocks it sees, forever.
class FirstKPolicy final : public core::ReplicationPolicy {
 public:
  FirstKPolicy(storage::DataNode& node, Bytes budget_bytes)
      : node_(&node), budget_(budget_bytes) {}

  bool on_map_task(const storage::BlockMeta& block, bool local) override {
    if (local) return false;
    if (node_->dynamic_bytes() + block.size > budget_) return false;
    if (!node_->insert_dynamic(block)) return false;
    ++created_;
    return true;
  }

  std::string name() const override { return "first-k"; }
  std::uint64_t replicas_created() const override { return created_; }

 private:
  storage::DataNode* node_;
  Bytes budget_;
  std::uint64_t created_ = 0;
};

int run(const Config& cfg) {
  const auto accesses = cfg.get_count<std::size_t>("accesses", 20000);
  const auto budget_blocks = cfg.get_count<Bytes>("budget_blocks", 16);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 5);

  const Bytes block_size = 128 * kMiB;
  const Bytes budget = budget_blocks * block_size;

  // A heavy-tailed block access stream over 200 single-block files. The
  // popularity order rotates halfway through, so policies must *adapt* —
  // the scenario DARE's competitive aging is designed for.
  const std::size_t num_files = 200;
  const ZipfDistribution zipf(num_files, 1.2);

  struct Contender {
    std::string label;
    std::unique_ptr<storage::DataNode> node;
    std::unique_ptr<core::ReplicationPolicy> policy;
    std::size_t hits = 0;
  };

  Rng rng(seed);
  std::vector<Contender> contenders;
  const auto disk = net::cct_profile().disk;
  {
    Contender c;
    c.label = "first-k (naive)";
    c.node = std::make_unique<storage::DataNode>(0, disk, rng);
    c.policy = std::make_unique<FirstKPolicy>(*c.node, budget);
    contenders.push_back(std::move(c));
  }
  {
    Contender c;
    c.label = "greedy-lru";
    c.node = std::make_unique<storage::DataNode>(0, disk, rng);
    c.policy = std::make_unique<core::GreedyLruPolicy>(*c.node, budget);
    contenders.push_back(std::move(c));
  }
  {
    Contender c;
    c.label = "elephant-trap p=0.3";
    c.node = std::make_unique<storage::DataNode>(0, disk, rng);
    core::ElephantTrapParams params;
    params.p = 0.3;
    params.threshold = 1;
    c.policy = std::make_unique<core::ElephantTrapPolicy>(*c.node, budget,
                                                          params, rng);
    contenders.push_back(std::move(c));
  }

  Rng stream(seed + 1);
  for (std::size_t i = 0; i < accesses; ++i) {
    std::size_t rank = zipf.sample(stream);
    // Popularity shift: halfway through, the hot set moves.
    if (i > accesses / 2) rank = (rank + num_files / 2) % num_files;
    const storage::BlockMeta block{static_cast<BlockId>(rank),
                                   static_cast<FileId>(rank), block_size};
    for (auto& c : contenders) {
      const bool local = c.node->has_visible_block(block.id);
      if (local) ++c.hits;
      c.policy->on_map_task(block, local);
      c.node->reclaim_marked();  // lazy deletion, eagerly for the demo
    }
  }

  AsciiTable table({"policy", "local-hit rate", "replicas created",
                    "still resident"});
  for (const auto& c : contenders) {
    table.add_row({c.label,
                   fmt_percent(static_cast<double>(c.hits) /
                               static_cast<double>(accesses)),
                   std::to_string(c.policy->replicas_created()),
                   std::to_string(c.node->dynamic_blocks().size())});
  }
  table.print(std::cout,
              "Custom policy showdown — heavy-tailed stream with a "
              "popularity shift\n(budget: " +
                  std::to_string(budget_blocks) + " blocks)");
  std::cout << "\nfirst-k froze the pre-shift hot set; LRU and the "
               "ElephantTrap adapted. Implement your own\npolicy by "
               "deriving from core::ReplicationPolicy (see FirstKPolicy in "
               "this file).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dare::run_driver(
      argc, argv, {{"accesses", "budget_blocks", "seed"}}, run);
}
