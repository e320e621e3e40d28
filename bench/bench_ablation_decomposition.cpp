// Ablations for the design choices DESIGN.md calls out:
//   1. child LP (eqs. 10-14) vs combinatorial flow-decomposition children;
//   2. exact-LP master vs FPTAS master at several epsilons;
//   3. pMCF candidate sets: link-disjoint vs shortest;
//   4. unroller slots-per-link (schedule depth vs step weight);
//   5. Forrest-Tomlin update limit between refactorizations.
#include "bench_util.hpp"

#include "lp/simplex.hpp"
#include "schedule/rounds.hpp"
#include "mcf/fleischer.hpp"
#include "mcf/path_mcf.hpp"
#include "obs/metrics.hpp"

using namespace a2a;
using namespace a2a::bench;

int main() {
  std::cout << "=== Ablation 1: child LP vs combinatorial split ===\n\n";
  {
    Table t({"Graph", "child", "F", "child stage s"});
    for (const int n : {12, 16, 20}) {
      const DiGraph g = make_generalized_kautz(n, 3);
      for (const auto child : {ChildMode::kLp, ChildMode::kCombinatorial}) {
        DecomposedOptions options;
        options.master = MasterMode::kExactLp;
        options.child = child;
        DecomposedTiming timing;
        const auto sol = solve_decomposed_mcf(g, all_nodes(g), options, &timing);
        t.row()
            .cell(g.summary())
            .cell(child == ChildMode::kLp ? "LP" : "combinatorial")
            .cell(sol.concurrent_flow, 4)
            .cell(timing.child_seconds, 3);
      }
    }
    t.print(std::cout);
  }

  std::cout << "\n=== Ablation 2: master tier (3x3x3 torus, F* = 1/9) ===\n\n";
  {
    Table t({"master", "F", "seconds"});
    const DiGraph g = make_torus({3, 3, 3});
    {
      DecomposedOptions options;
      options.master = MasterMode::kExactLp;
      DecomposedTiming timing;
      const auto sol = solve_decomposed_mcf(g, all_nodes(g), options, &timing);
      t.row().cell("exact LP").cell(sol.concurrent_flow, 5).cell(
          timing.master_seconds, 3);
    }
    for (const double eps : {0.1, 0.05, 0.02}) {
      DecomposedOptions options;
      options.master = MasterMode::kFptas;
      options.fptas_epsilon = eps;
      DecomposedTiming timing;
      const auto sol = solve_decomposed_mcf(g, all_nodes(g), options, &timing);
      t.row()
          .cell("FPTAS eps=" + std::to_string(eps).substr(0, 4))
          .cell(sol.concurrent_flow, 5)
          .cell(timing.master_seconds, 3);
    }
    t.print(std::cout);
  }

  std::cout << "\n=== Ablation 3: pMCF candidate sets (GenKautz 32, d=4) ===\n\n";
  {
    Table t({"candidates", "paths/pair", "F", "seconds"});
    const DiGraph g = make_generalized_kautz(32, 4);
    const auto nodes = all_nodes(g);
    FleischerOptions eps;
    eps.epsilon = 0.03;
    {
      const PathSet set = build_disjoint_path_set(g, nodes);
      double per_pair = 0;
      for (const auto& c : set.candidates) per_pair += static_cast<double>(c.size());
      PathFlowSolution sol;
      const double secs = timed([&] { sol = fleischer_paths(g, set, eps); });
      t.row()
          .cell("link-disjoint")
          .cell(per_pair / static_cast<double>(set.candidates.size()), 2)
          .cell(sol.concurrent_flow, 4)
          .cell(secs, 3);
    }
    {
      const PathSet set = build_shortest_path_set(g, nodes, 16);
      double per_pair = 0;
      for (const auto& c : set.candidates) per_pair += static_cast<double>(c.size());
      PathFlowSolution sol;
      const double secs = timed([&] { sol = fleischer_paths(g, set, eps); });
      t.row()
          .cell("all-shortest")
          .cell(per_pair / static_cast<double>(set.candidates.size()), 2)
          .cell(sol.concurrent_flow, 4)
          .cell(secs, 3);
    }
    t.print(std::cout);
  }

  std::cout << "\n=== Ablation 4: unroller slots per link (Q3) ===\n\n";
  {
    Table t({"slots", "steps", "sim GB/s @64MB", "sim GB/s @64KB"});
    const DiGraph g = make_hypercube(3);
    const auto flows = solve_decomposed_mcf(g, all_nodes(g));
    const auto paths = paths_from_link_flows(g, flows);
    const Fabric fabric = gpu_mscl_fabric();
    for (const int slots : {1, 2, 4}) {
      UnrollOptions uo;
      uo.slots_per_link = slots;
      const LinkSchedule sched = unroll_rate_schedule(g, paths, uo);
      const auto big = simulate_link_schedule(g, sched, 64e6 / 8, 8, fabric);
      const auto small = simulate_link_schedule(g, sched, 64e3 / 8, 8, fabric);
      t.row()
          .cell(static_cast<long long>(slots))
          .cell(static_cast<long long>(sched.num_steps))
          .cell(big.algo_throughput_GBps, 2)
          .cell(small.algo_throughput_GBps, 3);
    }
    t.print(std::cout);
  }

  std::cout << "\n=== Ablation 5: Forrest-Tomlin update limit between "
               "refactorizations (GenKautz 10 d=3, full MCF) ===\n\n";
  {
    Table t({"ft_update_limit", "seconds", "iterations", "refactorizations"});
    const DiGraph g = make_generalized_kautz(10, 3);
    obs::Counter& refactorizations =
        obs::MetricsRegistry::global().counter("lp.refactorizations");
    for (const int limit : {32, 192}) {
      SimplexOptions lp;
      lp.ft_update_limit = limit;
      LinkFlowSolution sol;
      const std::uint64_t before = refactorizations.value();
      const double secs =
          timed([&] { sol = solve_link_mcf_exact(g, all_nodes(g), lp); });
      t.row()
          .cell(static_cast<long long>(limit))
          .cell(secs, 3)
          .cell(sol.lp_iterations)
          .cell(static_cast<long long>(refactorizations.value() - before));
    }
    t.print(std::cout);
  }
  std::cout << "\n=== Ablation 6: round partitioning under QP contention "
               "(3x3x3 torus, 512MB buffer) ===\n\n";
  {
    // The §5.5 injection-rate fix: split the routed schedule across rounds
    // so fewer QPs are concurrently active.
    Table t({"rounds", "peak QPs", "seconds", "GB/s"});
    const DiGraph g = make_torus({3, 3, 3});
    DecomposedOptions options;
    options.master = MasterMode::kFptas;
    options.fptas_epsilon = 0.05;
    const auto flows = solve_decomposed_mcf(g, all_nodes(g), options);
    const PathSchedule sched =
        compile_path_schedule(g, paths_from_link_flows(g, flows), coarse_chunking());
    Fabric fabric = hpc_cerio_fabric();
    fabric.qp_knee = 256;
    fabric.qp_penalty = 0.25;  // a contention-dominated fabric
    for (const int rounds : {1, 2, 4, 8}) {
      const auto rounded = partition_into_rounds(sched, rounds);
      const auto r = simulate_rounded_schedule(g, rounded, 512e6 / 27, 27, fabric);
      t.row()
          .cell(static_cast<long long>(rounds))
          .cell(r.peak_concurrent_flows)
          .cell(r.seconds, 4)
          .cell(r.algo_throughput_GBps, 2);
    }
    t.print(std::cout);
  }
  return 0;
}
