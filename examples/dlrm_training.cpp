// DLRM embedding exchange — the §1 ML motivation.
//
// Model-parallel recommendation training all-to-alls embedding vectors every
// batch (forward + backward). This example sizes that exchange for an
// 8-GPU pod, generates link-based schedules for three candidate topologies
// of equal degree, and reports batches/second under the MSCCL-style fabric
// model — showing how schedule + topology choices move end-to-end training
// throughput.
#include <iostream>

#include "common/table.hpp"
#include "core/api.hpp"
#include "graph/topologies.hpp"
#include "runtime/sf_simulator.hpp"
#include "workloads/dlrm.hpp"

int main() {
  using namespace a2a;
  const Fabric fabric = gpu_mscl_fabric();
  DlrmConfig config;
  config.ranks = 8;
  config.batch_size = 8192;
  config.embedding_dim = 128;
  config.tables_per_rank = 8;
  std::cout << "DLRM exchange: " << config.ranks << " ranks, batch "
            << config.batch_size << ", dim " << config.embedding_dim
            << ", shard " << dlrm_shard_bytes(config) / 1e6 << " MB/rank\n\n";

  Table table({"Topology (d=3..4)", "F", "all-to-all ms", "batches/s"});
  std::vector<std::pair<std::string, DiGraph>> topologies;
  topologies.emplace_back("Hypercube Q3", make_hypercube(3));
  topologies.emplace_back("Twisted Q3", make_twisted_hypercube(3));
  topologies.emplace_back("K4,4", make_complete_bipartite(4, 4));
  topologies.emplace_back("Ring(8)", make_ring(8));

  for (auto& [name, topo] : topologies) {
    const auto generated = synthesize_schedule(topo, fabric);
    const auto report = evaluate_dlrm(config, [&](double shard_bytes) {
      return simulate_link_schedule(generated.schedule_graph,
                                    generated.link.value(), shard_bytes, 8,
                                    fabric)
          .seconds;
    });
    table.row()
        .cell(name)
        .cell(generated.concurrent_flow, 4)
        .cell(report.alltoall_s * 1e3, 3)
        .cell(report.batches_per_second, 1);
  }
  table.print(std::cout);
  std::cout << "\nHigher-F topologies/schedules translate directly into"
               " faster training steps (§1's DLRM motivation).\n";
  return 0;
}
