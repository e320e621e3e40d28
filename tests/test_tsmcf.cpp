// Time-stepped MCF (§3.1.3): the optimal total utilization equals 1/F of
// the fluid MCF once enough steps are allowed, and the flows satisfy the
// causality/demand constraints (15)-(20).
#include "mcf/timestepped.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "collectives/collective.hpp"
#include "collectives/demand.hpp"
#include "core/api.hpp"
#include "graph/algorithms.hpp"
#include "graph/topologies.hpp"
#include "obs/metrics.hpp"
#include "schedule/validate.hpp"

namespace a2a {
namespace {

void check_tsmcf_invariants(const DiGraph& g, const TsMcfSolution& sol) {
  for (int k = 0; k < sol.pairs.count(); ++k) {
    const auto [s, d] = sol.pairs.nodes(k);
    const auto& flow = sol.flow[static_cast<std::size_t>(k)];
    // (19) one unit leaves s, one unit reaches d.
    double out_s = 0, in_d = 0;
    for (int t = 0; t < sol.steps; ++t) {
      for (const EdgeId e : g.out_edges(s)) {
        out_s += flow[static_cast<std::size_t>(t)][static_cast<std::size_t>(e)];
      }
      for (const EdgeId e : g.in_edges(d)) {
        in_d += flow[static_cast<std::size_t>(t)][static_cast<std::size_t>(e)];
      }
    }
    EXPECT_NEAR(out_s, 1.0, 1e-5) << s << "->" << d;
    EXPECT_NEAR(in_d, 1.0, 1e-5) << s << "->" << d;
    // (17) cumulative causality at intermediates.
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (u == s || u == d) continue;
      double cum_in = 0, cum_out = 0;
      for (int t = 0; t < sol.steps; ++t) {
        for (const EdgeId e : g.out_edges(u)) {
          cum_out += flow[static_cast<std::size_t>(t)][static_cast<std::size_t>(e)];
        }
        EXPECT_LE(cum_out, cum_in + 1e-5) << "node " << u << " step " << t + 1;
        for (const EdgeId e : g.in_edges(u)) {
          cum_in += flow[static_cast<std::size_t>(t)][static_cast<std::size_t>(e)];
        }
      }
      EXPECT_NEAR(cum_in, cum_out, 1e-5) << "(18) at node " << u;
    }
  }
  // (16): per-step utilization matches the reported U_t.
  for (int t = 0; t < sol.steps; ++t) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      double total = 0;
      for (int k = 0; k < sol.pairs.count(); ++k) {
        total += sol.flow[static_cast<std::size_t>(k)][static_cast<std::size_t>(t)]
                         [static_cast<std::size_t>(e)];
      }
      EXPECT_LE(total / g.edge(e).capacity,
                sol.step_utilization[static_cast<std::size_t>(t)] + 1e-5);
    }
  }
}

TEST(TsMcf, RingOfFourMatchesFluidOptimum) {
  const DiGraph g = make_ring(4);
  const auto sol = solve_tsmcf_exact(g, 3, all_nodes(g));
  EXPECT_NEAR(sol.total_utilization, 2.0, 1e-5);  // 1/F with F = 1/2
  check_tsmcf_invariants(g, sol);
}

TEST(TsMcf, HypercubeMatchesFluidOptimum) {
  const DiGraph g = make_hypercube(3);
  const auto sol = solve_tsmcf_exact(g, 4, all_nodes(g));
  EXPECT_NEAR(sol.total_utilization, 4.0, 1e-4);  // 1/F with F = 1/4
  check_tsmcf_invariants(g, sol);
}

TEST(TsMcf, BipartiteMatchesFluidOptimum) {
  const DiGraph g = make_complete_bipartite(4, 4);
  const auto sol = solve_tsmcf_exact(g, 3, all_nodes(g));
  EXPECT_NEAR(sol.total_utilization, 2.5, 1e-4);  // 1/F with F = 2/5
  check_tsmcf_invariants(g, sol);
}

TEST(TsMcf, MoreStepsNeverHurt) {
  const DiGraph g = make_ring(4);
  const double u3 = solve_tsmcf_exact(g, 3, all_nodes(g)).total_utilization;
  const double u5 = solve_tsmcf_exact(g, 5, all_nodes(g)).total_utilization;
  EXPECT_LE(u5, u3 + 1e-6);
}

TEST(TsMcf, RejectsTooFewSteps) {
  const DiGraph g = make_ring(6);  // diameter 3
  EXPECT_THROW(solve_tsmcf_exact(g, 2, all_nodes(g)), InvalidArgument);
}

TEST(TsMcf, TotalUtilizationAtLeastFluidBound) {
  // For any steps >= diameter, sum U_t >= 1/F_fluid.
  const DiGraph g = make_twisted_hypercube(3);
  const auto sol = solve_tsmcf_exact(g, diameter(g) + 1, all_nodes(g));
  check_tsmcf_invariants(g, sol);
  EXPECT_GE(sol.total_utilization, 1.0);  // trivially >= (N-1)/d = 7/3? no: >= 1
}

TEST(TsMcf, SlackDualMatchesColdPrimalOracle) {
  // solve_tsmcf_exact starts cold solves from the slack basis on the dual
  // simplex. The cold two-phase primal on the same model stays the oracle:
  // on every fabric where it finishes, both must reach the same optimum.
  struct Case {
    const char* name;
    DiGraph graph;
    const char* demand;  ///< nullptr = unit all-to-all
  };
  const std::vector<Case> cases = {
      {"genkautz(8,4)", make_generalized_kautz(8, 4), nullptr},
      {"genkautz(10,4)", make_generalized_kautz(10, 4), nullptr},
      {"genkautz(12,4)", make_generalized_kautz(12, 4), nullptr},
      {"genkautz(14,4)", make_generalized_kautz(14, 4), nullptr},
      {"hypercube(3)", make_hypercube(3), nullptr},
      {"ring(10)", make_ring(10), nullptr},
      {"torus 2x2x3", make_torus({2, 2, 3}), nullptr},
      {"genkautz(14,4) zipf:1.2", make_generalized_kautz(14, 4), "zipf:1.2"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const DiGraph& g = c.graph;
    const int steps = diameter(g) + 1;
    std::optional<DemandMatrix> demand;
    if (c.demand != nullptr) {
      WorkloadSpec workload;
      workload.demand = DemandSpec::parse(c.demand);
      demand = effective_demand(workload, g.num_nodes());
    }
    const DemandMatrix* d = demand ? &*demand : nullptr;

    const auto sol = solve_tsmcf_exact(g, steps, all_nodes(g), {}, nullptr,
                                       LpWarmMode::kAuto, d);
    EXPECT_TRUE(sol.lp_stats.dual_used);
    EXPECT_GT(sol.lp_stats.dual_iterations, 0);
    EXPECT_EQ(sol.lp_stats.cold_retries, 0);
    if (d == nullptr) check_tsmcf_invariants(g, sol);

    const LpSolution primal = solve_lp(
        build_tsmcf_model(g, steps, TerminalPairs(all_nodes(g)), nullptr, d));
    ASSERT_TRUE(primal.optimal());
    EXPECT_FALSE(primal.stats.dual_used);
    EXPECT_NEAR(sol.total_utilization, primal.objective,
                1e-9 * std::abs(primal.objective));
  }
}

TEST(TsMcf, GenKautz13OneCclSolvesThroughTheDual) {
  // The cold primal stalls on this LP: it falls into Bland's rule and ends
  // at the iteration limit after minutes. From the slack basis the dual
  // solves it in a few thousand pivots.
  const DiGraph g = make_generalized_kautz(13, 4);
  const auto ts = solve_tsmcf_exact(g, diameter(g) + 1, all_nodes(g));
  EXPECT_TRUE(ts.lp_stats.dual_used);
  EXPECT_EQ(ts.lp_stats.cold_retries, 0);
  EXPECT_NEAR(1.0 / ts.total_utilization, 0.171206, 1e-6);

  // The same LP through the pipeline: the schedule validates, and the
  // lp.dual_iterations counter shows which engine solved it.
  obs::Counter& dual_pivots =
      obs::MetricsRegistry::global().counter("lp.dual_iterations");
  const std::uint64_t dual_before = dual_pivots.value();
  const GeneratedSchedule r = synthesize_schedule(g, cpu_oneccl_fabric());
  ASSERT_EQ(r.kind, ScheduleKind::kLinkTsMcf);
  ASSERT_TRUE(r.link.has_value());
  EXPECT_GT(dual_pivots.value(), dual_before);
  EXPECT_NEAR(r.concurrent_flow, 1.0 / ts.total_utilization, 1e-12);
  const auto v = validate_link_schedule(r.schedule_graph, *r.link, r.terminals);
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
}

}  // namespace
}  // namespace a2a
