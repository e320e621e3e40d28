// Fleischer FPTAS (§2.3 baseline / large-N master): feasibility always, a
// certified (1 - eps) gap for the grouped master against the exact simplex
// on overlapping sizes, (1 - O(eps)) for the path-restricted variant.
#include "mcf/fleischer.hpp"

#include <gtest/gtest.h>

#include "collectives/demand.hpp"
#include "graph/topologies.hpp"
#include "mcf/path_mcf.hpp"

namespace a2a {
namespace {

void check_grouped_feasible(const DiGraph& g, const GroupedFlowSolution& sol,
                            const DemandMatrix* demand = nullptr) {
  std::vector<double> total(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (const auto& fs : sol.per_source) {
    for (std::size_t e = 0; e < total.size(); ++e) total[e] += fs[e];
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(total[static_cast<std::size_t>(e)], g.edge(e).capacity + 1e-6);
  }
  // Every source delivers >= w(s,d)·F to each other terminal (grouped form:
  // inflow - outflow >= w·F at every other terminal; w = 1 when unweighted).
  for (std::size_t si = 0; si < sol.terminals.size(); ++si) {
    const auto& flow = sol.per_source[si];
    for (std::size_t di = 0; di < sol.terminals.size(); ++di) {
      if (di == si) continue;
      const NodeId u = sol.terminals[di];
      const double w = demand == nullptr
                           ? 1.0
                           : demand->at(static_cast<int>(si), static_cast<int>(di));
      double in = 0, out = 0;
      for (const EdgeId e : g.in_edges(u)) in += flow[static_cast<std::size_t>(e)];
      for (const EdgeId e : g.out_edges(u)) out += flow[static_cast<std::size_t>(e)];
      EXPECT_GE(in - out, w * sol.concurrent_flow - 1e-6)
          << "source " << sol.terminals[si] << " sink " << u;
    }
  }
}

class FleischerVsExact : public ::testing::TestWithParam<int> {};

TEST_P(FleischerVsExact, WithinEpsilonOfSimplex) {
  DiGraph g;
  double exact;
  switch (GetParam()) {
    case 0: g = make_ring(6); exact = 12.0 / 54.0; break;
    case 1: g = make_hypercube(3); exact = 0.25; break;
    case 2: g = make_complete_bipartite(4, 4); exact = 0.4; break;
    case 3: g = make_torus({3, 3, 3}); exact = 1.0 / 9.0; break;
    default: g = make_complete(6); exact = 1.0; break;
  }
  FleischerOptions options;
  options.epsilon = 0.05;
  const auto sol = fleischer_grouped(g, all_nodes(g), options);
  EXPECT_LE(sol.concurrent_flow, exact + 1e-6);
  // The dual bound is a certificate: never below the optimum, and the stop
  // rule only returns once F is within (1 - eps) of it.
  EXPECT_GE(sol.upper_bound, exact * (1.0 - 1e-9));
  EXPECT_GE(sol.concurrent_flow, exact * (1.0 - options.epsilon));
  EXPECT_GE(sol.phases, 1);
  check_grouped_feasible(g, sol);
}

INSTANTIATE_TEST_SUITE_P(Topologies, FleischerVsExact, ::testing::Range(0, 5));

TEST(Fleischer, Torus444StopsOnCertifiedGap) {
  // The decomposed master's large-N case: F* = 1/32 on torus 4x4x4. The gap
  // stop ends the run in a few dozen phases instead of the hundreds that
  // running the dual up to 1 takes.
  const DiGraph g = make_torus({4, 4, 4});
  FleischerOptions options;
  options.epsilon = 0.02;
  const auto sol = fleischer_grouped(g, all_nodes(g), options);
  EXPECT_GE(sol.upper_bound, (1.0 / 32.0) * (1.0 - 1e-9));
  EXPECT_GE(sol.concurrent_flow, (1.0 - options.epsilon) * sol.upper_bound);
  EXPECT_GE(sol.concurrent_flow, 0.98 / 32.0);
  EXPECT_LE(sol.concurrent_flow, 1.0 / 32.0 + 1e-9);
  EXPECT_LE(sol.phases, 40);
  check_grouped_feasible(g, sol);
}

TEST(Fleischer, SkewedDemandStopsOnLengthBound) {
  // Zipf-skewed rows on torus 4x4x4: the unit-length (Theorem 1) bound
  // stays at 1/32 while F* is about six times lower, so only the
  // D(l)/alpha(l) bound on the end-of-phase lengths can certify the gap.
  // Without it the run goes on until the dual reaches 1 (77 phases).
  const DiGraph g = make_torus({4, 4, 4});
  const DemandMatrix demand = DemandMatrix::zipf(64, 1.2);
  FleischerOptions options;
  options.epsilon = 0.02;
  const auto sol = fleischer_grouped(g, all_nodes(g), options, &demand);
  EXPECT_LT(sol.upper_bound, 0.5 / 32.0);
  EXPECT_GE(sol.concurrent_flow, (1.0 - options.epsilon) * sol.upper_bound);
  EXPECT_LE(sol.phases, 10);
  check_grouped_feasible(g, sol, &demand);
}

TEST(Fleischer, TighterEpsilonIsCloser) {
  const DiGraph g = make_hypercube(3);
  FleischerOptions loose;
  loose.epsilon = 0.3;
  FleischerOptions tight;
  tight.epsilon = 0.03;
  const double f_loose = fleischer_grouped(g, all_nodes(g), loose).concurrent_flow;
  const double f_tight = fleischer_grouped(g, all_nodes(g), tight).concurrent_flow;
  EXPECT_GE(f_tight, f_loose - 1e-9);
  EXPECT_GE(f_tight, 0.25 * 0.95);
}

TEST(Fleischer, RejectsBadEpsilon) {
  const DiGraph g = make_ring(4);
  FleischerOptions options;
  options.epsilon = 0.9;
  EXPECT_THROW(fleischer_grouped(g, all_nodes(g), options), InvalidArgument);
}

TEST(Fleischer, PathRestrictedMatchesExactPathLp) {
  const DiGraph g = make_complete_bipartite(4, 4);
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const double exact = solve_path_mcf_exact(g, set).concurrent_flow;
  FleischerOptions options;
  options.epsilon = 0.05;
  const auto sol = fleischer_paths(g, set, options);
  EXPECT_LE(sol.concurrent_flow, exact + 1e-6);
  EXPECT_GE(sol.concurrent_flow, exact * (1.0 - 3 * options.epsilon));
  // Weight shapes align with the candidate sets.
  ASSERT_EQ(sol.weights.size(), set.candidates.size());
  for (std::size_t k = 0; k < sol.weights.size(); ++k) {
    EXPECT_EQ(sol.weights[k].size(), set.candidates[k].size());
    double total = 0;
    for (const double w : sol.weights[k]) {
      EXPECT_GE(w, 0.0);
      total += w;
    }
    EXPECT_GE(total, sol.concurrent_flow - 1e-9);
  }
}

TEST(Fleischer, PathRestrictedRespectsCapacities) {
  const DiGraph g = make_torus({3, 3});
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  const auto sol = fleischer_paths(g, set);
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t k = 0; k < sol.weights.size(); ++k) {
    for (std::size_t p = 0; p < sol.weights[k].size(); ++p) {
      for (const EdgeId e : set.candidates[k][p]) {
        load[static_cast<std::size_t>(e)] += sol.weights[k][p];
      }
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(load[static_cast<std::size_t>(e)], g.edge(e).capacity + 1e-6);
  }
}

TEST(Fleischer, TinyTimeLimitStillYieldsFeasibleFlow) {
  // Anytime contract: the phase-boundary cutoff may cost optimality but
  // never feasibility, and at least one phase always runs (the congestion
  // rescale needs some flow to normalize by).
  const DiGraph g = make_torus({3, 3});
  const PathSet set = build_disjoint_path_set(g, all_nodes(g));
  FleischerOptions options;
  options.time_limit_s = 1e-9;
  const auto sol = fleischer_paths(g, set, options);
  EXPECT_GT(sol.concurrent_flow, 0.0);
  std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (std::size_t k = 0; k < sol.weights.size(); ++k) {
    for (std::size_t p = 0; p < sol.weights[k].size(); ++p) {
      for (const EdgeId e : set.candidates[k][p]) {
        load[static_cast<std::size_t>(e)] += sol.weights[k][p];
      }
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(load[static_cast<std::size_t>(e)], g.edge(e).capacity + 1e-6);
  }
}

TEST(Fleischer, GroupedTimeLimitKeepsFeasibility) {
  const DiGraph g = make_ring(8);
  FleischerOptions options;
  options.time_limit_s = 1e-9;
  const auto sol = fleischer_grouped(g, all_nodes(g), options);
  check_grouped_feasible(g, sol);
  EXPECT_GT(sol.concurrent_flow, 0.0);
}

TEST(Fleischer, GroupedWithTerminalSubset) {
  const DiGraph g = make_ring(6);
  const auto sol = fleischer_grouped(g, {0, 3});
  // Two disjoint halves of the ring, capacity 1 each: F close to 2.
  EXPECT_GE(sol.concurrent_flow, 2.0 * 0.85);
  EXPECT_LE(sol.concurrent_flow, 2.0 + 1e-6);
}

}  // namespace
}  // namespace a2a
