// Quickstart: generate, validate, lower, simulate, and execute an all-to-all
// schedule for a direct-connect topology in ~40 lines of API.
//
//   ./quickstart            # 3x3x3 torus on the Cerio-style HPC fabric
//
// Walks the whole Fig. 1 toolchain: topology -> MCF -> schedule -> XML
// lowering -> throughput estimate -> in-memory execution with verification.
#include <iostream>

#include "core/api.hpp"
#include "graph/topologies.hpp"
#include "runtime/ct_simulator.hpp"
#include "runtime/executor.hpp"
#include "runtime/sf_simulator.hpp"
#include "schedule/validate.hpp"
#include "schedule/xml_io.hpp"

int main() {
  using namespace a2a;

  // 1. Pick a topology (any DiGraph works; builders cover the paper's zoo).
  const DiGraph topo = make_torus({3, 3, 3});
  std::cout << "Topology: " << topo.summary() << "\n";

  // 2. Describe the fabric (Table 1 properties).
  const Fabric fabric = hpc_cerio_fabric();
  std::cout << "Fabric:   " << fabric.name << ", link "
            << fabric.link_GBps << " GB/s, NIC forwarding "
            << (fabric.nic_forwarding ? "yes" : "no") << "\n";

  // 3. Generate the schedule (Fig. 1 decision flow picks the algorithm).
  const GeneratedSchedule result = synthesize_schedule(topo, fabric);
  std::cout << "Pipeline: " << result.notes << "\n";
  std::cout << "Optimal concurrent rate F = " << result.concurrent_flow
            << "  (all-to-all time 1/F = " << 1.0 / result.concurrent_flow
            << " link-transmissions)\n";

  // 4. Validate and lower to XML (the §4 interchange format).
  const PathSchedule& sched = result.path.value();
  const auto validation = validate_path_schedule(topo, sched, result.terminals);
  std::cout << "Validation: " << (validation.ok ? "OK" : "FAILED") << ", "
            << sched.entries.size() << " routes, chunk unit "
            << sched.chunk_unit.to_double() << ", VC layers "
            << result.vc_layers << "\n";
  const std::string xml = path_schedule_to_xml(topo, sched);
  std::cout << "XML lowering: " << xml.size() << " bytes (first route: "
            << xml.substr(xml.find("<route"), 80) << "...)\n";

  // 5. Estimate throughput across buffer sizes.
  std::cout << "\nBuffer    Throughput (GB/s)   [upper bound "
            << 26 * result.concurrent_flow * fabric.link_GBps << "]\n";
  for (const double buf : {1e6, 16e6, 256e6, 4e9}) {
    const auto sim = simulate_path_schedule(topo, sched, buf / 27, 27, fabric);
    std::cout << "  " << buf / 1e6 << " MB:  " << sim.algo_throughput_GBps
              << "\n";
  }

  // 6. Execute it for real (threads move bytes; transpose verified).
  const auto report = execute_path_schedule(topo, sched, result.terminals, 4096);
  std::cout << "\nExecuted in-memory: moved " << report.bytes_moved
            << " bytes, transpose verified = "
            << (report.transpose_verified ? "yes" : "no") << "\n";
  return 0;
}
