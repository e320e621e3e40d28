// Path-based MCF (§3.1.4): disjoint-path candidates nearly match the
// unrestricted optimum (the §5.3 observation), shortest-path candidates can
// be strictly worse on expanders.
#include "mcf/path_mcf.hpp"

#include <gtest/gtest.h>

#include "collectives/demand.hpp"
#include "graph/topologies.hpp"
#include "mcf/concurrent_flow.hpp"

namespace a2a {
namespace {

TEST(PathMcf, DisjointMatchesLinkOptimumOnHypercube) {
  const DiGraph g = make_hypercube(3);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const auto sol = solve_path_mcf_exact(g, set);
  EXPECT_NEAR(sol.concurrent_flow, 0.25, 1e-5);
}

TEST(PathMcf, DisjointMatchesLinkOptimumOnK44) {
  const DiGraph g = make_complete_bipartite(4, 4);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const auto sol = solve_path_mcf_exact(g, set);
  EXPECT_NEAR(sol.concurrent_flow, 0.4, 1e-5);
}

TEST(PathMcf, ShortestPathsWeakerThanDisjointOnExpander) {
  // §5.3: pMCF with only shortest paths is suboptimal on expanders because
  // expanders have few shortest paths.
  const DiGraph g = make_generalized_kautz(10, 3);
  const std::vector<NodeId> nodes = all_nodes(g);
  const double f_disjoint =
      solve_path_mcf_exact(g, build_disjoint_path_set(g, nodes)).concurrent_flow;
  const double f_shortest =
      solve_path_mcf_exact(g, build_shortest_path_set(g, nodes, 64)).concurrent_flow;
  EXPECT_LE(f_shortest, f_disjoint + 1e-6);
  const double f_link = solve_link_mcf_exact(g, nodes).concurrent_flow;
  EXPECT_GE(f_disjoint, 0.85 * f_link);  // near-optimal per §5.3
}

TEST(PathMcf, UnrestrictedPathsEqualLinkDualOnSmallGraph) {
  // On a 5-ring, shortest+disjoint candidates already realize the full dual.
  const DiGraph g = make_ring(5);
  const std::vector<NodeId> nodes = all_nodes(g);
  const double f_link = solve_link_mcf_exact(g, nodes).concurrent_flow;
  const double f_path =
      solve_path_mcf_exact(g, build_disjoint_path_set(g, nodes)).concurrent_flow;
  EXPECT_NEAR(f_link, f_path, 1e-5);
}

TEST(PathMcf, WeightsRespectCapacitiesAndDemands) {
  const DiGraph g = make_torus({3, 3});
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const auto sol = solve_path_mcf_exact(g, set);
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t k = 0; k < set.candidates.size(); ++k) {
    double demand = 0;
    for (std::size_t p = 0; p < set.candidates[k].size(); ++p) {
      demand += sol.weights[k][p];
      for (const EdgeId e : set.candidates[k][p]) {
        load[static_cast<std::size_t>(e)] += sol.weights[k][p];
      }
    }
    EXPECT_GE(demand, sol.concurrent_flow - 1e-6);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(load[static_cast<std::size_t>(e)], g.edge(e).capacity + 1e-6);
  }
}

TEST(PathMcf, ExactOptimumOnGenKautzCerioFabrics) {
  // The pMCF optima the cerio pipeline serves for GK16 and GK27 (d=4), as
  // exact fractions: F = 1/λ* must come back from the min-congestion LP
  // to solver precision.
  const struct {
    int n;
    double f;
  } cases[] = {{16, 5.0 / 41.0}, {27, 51.0 / 772.0}};
  for (const auto& c : cases) {
    const DiGraph g = make_generalized_kautz(c.n, 4);
    const auto sol =
        solve_path_mcf_exact(g, build_disjoint_path_set(g, all_nodes(g)));
    EXPECT_NEAR(sol.concurrent_flow, c.f, 1e-12 * c.f) << "GK" << c.n;
  }
}

TEST(PathMcf, WeightedWeightsCarryDemandTimesFWithinCapacity) {
  // The PathMcfSolution contract under skewed demand: Σ_p w_kp = d_k·F
  // for every commodity and no link loaded past its capacity.
  const DiGraph g = make_generalized_kautz(16, 4);
  const DemandMatrix demand = DemandMatrix::zipf(g.num_nodes(), 1.2);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g), &demand);
  const auto sol = solve_path_mcf_exact(g, set);
  ASSERT_GT(sol.concurrent_flow, 0.0);
  ASSERT_EQ(sol.weights.size(), set.candidates.size());
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t k = 0; k < set.candidates.size(); ++k) {
    double routed = 0.0;
    for (std::size_t p = 0; p < set.candidates[k].size(); ++p) {
      routed += sol.weights[k][p];
      for (const EdgeId e : set.candidates[k][p]) {
        load[static_cast<std::size_t>(e)] += sol.weights[k][p];
      }
    }
    const double want = set.demand_of(k) * sol.concurrent_flow;
    EXPECT_NEAR(routed, want, 1e-9 * want) << "commodity " << k;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(load[static_cast<std::size_t>(e)], g.edge(e).capacity * (1.0 + 1e-9))
        << "edge " << e;
  }
}

TEST(PathMcf, MaxLinkLoadInverseOfF) {
  // With weights normalized per commodity, 1/max_link_load is the rate the
  // schedule actually achieves; for the optimal weights it equals F.
  const DiGraph g = make_hypercube(3);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const auto sol = solve_path_mcf_exact(g, set);
  const double load = max_link_load(g, set, sol.weights);
  EXPECT_NEAR(1.0 / load, sol.concurrent_flow, 1e-5);
}

TEST(PathMcf, ShortestSetTruncationFlagOnTorus) {
  const DiGraph g = make_torus({3, 3, 3});
  bool truncated = false;
  (void)build_shortest_path_set(g, all_nodes(g), 4, &truncated);
  EXPECT_TRUE(truncated);  // tori have many shortest paths (§3.1.4)
}

TEST(PathMcf, BudgetedSolveReportsTimeLimitInsteadOfThrowing) {
  const DiGraph g = make_torus({3, 3});
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  SimplexOptions lp;
  lp.time_limit_s = 1e-9;
  const auto sol = solve_path_mcf_budgeted(g, set, lp);
  EXPECT_EQ(sol.status, LpStatus::kTimeLimit);
  // Weights stay shaped like the candidate set even when the solve was cut
  // off before any value was produced (callers repair, not crash).
  ASSERT_EQ(sol.weights.size(), set.commodities.size());
  for (std::size_t k = 0; k < sol.weights.size(); ++k) {
    EXPECT_EQ(sol.weights[k].size(), set.candidates[k].size());
  }
}

TEST(PathMcf, BudgetedSolveMatchesExactWithGenerousBudget) {
  const DiGraph g = make_hypercube(3);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  SimplexOptions lp;
  lp.time_limit_s = 30.0;
  const auto sol = solve_path_mcf_budgeted(g, set, lp);
  EXPECT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.concurrent_flow, 0.25, 1e-5);
}

TEST(PathMcf, BuildDisjointThrowsOnDisconnectedTerminals) {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  EXPECT_THROW(build_disjoint_path_set(g, {0, 2}), InvalidArgument);
}

}  // namespace
}  // namespace a2a
