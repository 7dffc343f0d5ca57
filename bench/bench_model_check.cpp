// Analytic cross-validation: the simulator's measured FIFO locality must
// lie between a first-principles prediction evaluated on the initial
// replica counts (no dynamic replication yet) and on the final counts
// (full dynamic replication) — arithmetic that involves no event engine.
// Agreement here means the headline Fig. 7/10 numbers are not artifacts of
// the simulator's scheduling mechanics.
//
// Overrides: jobs=<n> nodes=<n> seed=<n>
#include "bench_common.h"
#include "cluster/experiment.h"
#include "metrics/locality_model.h"

namespace dare {
namespace {

using cluster::PolicyKind;
using cluster::SchedulerKind;

int run(const Config& cfg) {
  const auto jobs = cfg.get_count<std::size_t>("jobs", 500);
  const auto nodes = cfg.get_count<std::size_t>("nodes", 20);
  const auto seed = cfg.get_count<std::uint64_t>("seed", 42);

  bench::banner("Analytic cross-validation of FIFO locality",
                "model check for DARE (CLUSTER'11) Figs. 7a/10a");

  const auto wl = cluster::standard_wl1(nodes, jobs, seed);
  const auto counts = wl.file_access_counts();

  AsciiTable table({"policy", "model (initial replicas)", "measured",
                    "model (final replicas)"});
  for (const PolicyKind policy :
       {PolicyKind::kVanilla, PolicyKind::kGreedyLru,
        PolicyKind::kElephantTrap}) {
    cluster::Cluster sim(cluster::paper_defaults(
        net::cct_profile(nodes), SchedulerKind::kFifo, policy, seed));
    const auto result = sim.run(wl);

    std::vector<double> weights;
    std::vector<std::size_t> initial;
    std::vector<std::size_t> final_counts;
    const auto& nn = sim.name_node();
    const auto files = nn.all_files();
    for (std::size_t i = 0; i < files.size(); ++i) {
      for (BlockId bid : nn.file(files[i]).blocks) {
        weights.push_back(static_cast<double>(counts[i]));
        initial.push_back(3);
        final_counts.push_back(nn.locations(bid).size());
      }
    }
    table.add_row(
        {cluster::policy_name(policy),
         fmt_fixed(metrics::expected_fifo_locality(weights, initial,
                                                   sim.worker_count()),
                   3),
         fmt_fixed(result.locality, 3),
         fmt_fixed(metrics::expected_fifo_locality(weights, final_counts,
                                                   sim.worker_count()),
                   3)});
  }
  table.print(std::cout,
              "\nP(local) = sum_b weight_b * min(1, replicas_b / workers) "
              "(FIFO, wl1)");
  std::cout << "\nExpected: measured locality falls between the two model "
               "evaluations — replicas accumulate\nduring the run, so the "
               "run interpolates between its initial and final placement.\n";
  return 0;
}

}  // namespace
}  // namespace dare

int main(int argc, char** argv) {
  return dare::run_driver(argc, argv, {{"jobs", "nodes", "seed"}}, dare::run);
}
