#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/random.hpp"
#include "lp/simplex_core.hpp"
#include "graph/algorithms.hpp"
#include "graph/topologies.hpp"
#include "mcf/concurrent_flow.hpp"
#include "mcf/timestepped.hpp"

namespace a2a {
namespace {

/// Solves with both backends and checks they agree on status and objective
/// (the acceptance bar of the sparse-solver rewrite).
LpSolution cross_check(const LpModel& model) {
  const LpSolution sparse = solve_lp(model);
  const LpSolution dense = solve_lp_dense(model);
  EXPECT_EQ(sparse.status, dense.status);
  if (sparse.optimal() && dense.optimal()) {
    EXPECT_NEAR(sparse.objective, dense.objective,
                1e-6 * std::max(1.0, std::abs(dense.objective)));
  }
  return sparse;
}

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18  -> 36 at (2, 6).
  LpModel m(Sense::kMaximize);
  const int x = m.add_variable(0, kInfinity, 3);
  const int y = m.add_variable(0, kInfinity, 5);
  m.add_coefficient(m.add_row(RowType::kLessEqual, 4), x, 1);
  m.add_coefficient(m.add_row(RowType::kLessEqual, 12), y, 2);
  const int r = m.add_row(RowType::kLessEqual, 18);
  m.add_coefficient(r, x, 3);
  m.add_coefficient(r, y, 2);
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 36.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 2.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(y)], 6.0, 1e-7);
}

TEST(Simplex, SolvesEqualityAndGreaterEqual) {
  // min x + 2y  s.t.  x + y = 3, x - y >= 1, x,y >= 0  -> (3,0) obj 3? Check:
  // x+y=3, x-y>=1 -> x>=2. min x+2y = min x + 2(3-x) = 6 - x -> x=3,y=0: obj 3.
  LpModel m(Sense::kMinimize);
  const int x = m.add_variable(0, kInfinity, 1);
  const int y = m.add_variable(0, kInfinity, 2);
  int r = m.add_row(RowType::kEqual, 3);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  r = m.add_row(RowType::kGreaterEqual, 1);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, -1);
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  LpModel m(Sense::kMinimize);
  const int x = m.add_variable(0, kInfinity, 1);
  m.add_coefficient(m.add_row(RowType::kGreaterEqual, 5), x, 1);
  m.add_coefficient(m.add_row(RowType::kLessEqual, 3), x, 1);
  EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpModel m(Sense::kMaximize);
  const int x = m.add_variable(0, kInfinity, 1);
  const int y = m.add_variable(0, kInfinity, 0);
  const int r = m.add_row(RowType::kLessEqual, 1);
  m.add_coefficient(r, y, 1);
  (void)x;
  EXPECT_EQ(solve_lp(m).status, LpStatus::kUnbounded);
}

TEST(Simplex, RespectsVariableUpperBounds) {
  // max x + y with x <= 2 (bound), x + y <= 3.
  LpModel m(Sense::kMaximize);
  const int x = m.add_variable(0, 2, 1);
  const int y = m.add_variable(0, kInfinity, 1);
  const int r = m.add_row(RowType::kLessEqual, 3);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
  EXPECT_LE(s.values[static_cast<std::size_t>(x)], 2.0 + 1e-9);
}

TEST(Simplex, BoundFlipPath) {
  // All variables boxed; optimum at upper bounds.
  LpModel m(Sense::kMaximize);
  const int n = 12;
  int row = -1;
  for (int i = 0; i < n; ++i) {
    const int v = m.add_variable(0, 1, 1.0 + 0.01 * i);
    if (row < 0) row = m.add_row(RowType::kLessEqual, 100.0);
    m.add_coefficient(row, v, 1.0);
  }
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(s.values[static_cast<std::size_t>(i)], 1.0, 1e-7);
  }
}

TEST(Simplex, FixedVariableViaEqualBounds) {
  LpModel m(Sense::kMaximize);
  const int x = m.add_variable(2, 2, 1);  // fixed at 2
  const int y = m.add_variable(0, kInfinity, 1);
  const int r = m.add_row(RowType::kLessEqual, 5);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 2.0, 1e-9);
  EXPECT_NEAR(s.objective, 5.0, 1e-7);
}

TEST(Simplex, NonZeroLowerBounds) {
  // min x + y, x >= 1.5, y >= 2.5, x + y >= 5 -> obj 5.
  LpModel m(Sense::kMinimize);
  const int x = m.add_variable(1.5, kInfinity, 1);
  const int y = m.add_variable(2.5, kInfinity, 1);
  const int r = m.add_row(RowType::kGreaterEqual, 5);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 5.0, 1e-7);
}

TEST(Simplex, DegenerateTransportationProblem) {
  // Balanced 3x3 transportation problem with known optimum.
  // supply {10,10,10}, demand {10,10,10}, cost c[i][j] = |i-j|+1.
  LpModel m(Sense::kMinimize);
  int var[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      var[i][j] = m.add_variable(0, kInfinity, std::abs(i - j) + 1);
    }
  }
  for (int i = 0; i < 3; ++i) {
    const int r = m.add_row(RowType::kEqual, 10);
    for (int j = 0; j < 3; ++j) m.add_coefficient(r, var[i][j], 1);
  }
  for (int j = 0; j < 3; ++j) {
    const int r = m.add_row(RowType::kEqual, 10);
    for (int i = 0; i < 3; ++i) m.add_coefficient(r, var[i][j], 1);
  }
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 30.0, 1e-6);  // all diagonal at cost 1
}

/// Randomized property sweep: feasibility and weak-duality sanity on random
/// packing LPs (max c'x, Ax <= b, x >= 0 with non-negative data): the
/// optimum must satisfy every constraint and beat every single-variable
/// feasible point.
class SimplexRandomPacking : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomPacking, OptimumFeasibleAndDominant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 5 + static_cast<int>(rng.next_below(10));
  const int rows = 3 + static_cast<int>(rng.next_below(8));
  std::vector<double> c(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) c[static_cast<std::size_t>(j)] = 0.1 + rng.next_double();
  std::vector<std::vector<double>> a(static_cast<std::size_t>(rows),
                                     std::vector<double>(static_cast<std::size_t>(n)));
  std::vector<double> b(static_cast<std::size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    b[static_cast<std::size_t>(i)] = 1.0 + rng.next_double() * 5;
    for (int j = 0; j < n; ++j) {
      a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = rng.next_double();
    }
  }
  LpModel model(Sense::kMaximize);
  for (int j = 0; j < n; ++j) model.add_variable(0, kInfinity, c[static_cast<std::size_t>(j)]);
  for (int i = 0; i < rows; ++i) {
    const int r = model.add_row(RowType::kLessEqual, b[static_cast<std::size_t>(i)]);
    for (int j = 0; j < n; ++j) {
      model.add_coefficient(r, j, a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
  }
  for (int j = 0; j < n; ++j) {
    model.add_coefficient(model.add_row(RowType::kLessEqual, 10.0), j, 1.0);
  }
  const LpSolution s = solve_lp(model);
  ASSERT_TRUE(s.optimal());
  // Feasibility.
  for (int i = 0; i < rows; ++i) {
    double lhs = 0;
    for (int j = 0; j < n; ++j) {
      lhs += a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
             s.values[static_cast<std::size_t>(j)];
    }
    EXPECT_LE(lhs, b[static_cast<std::size_t>(i)] + 1e-6);
  }
  // Dominance over single-variable feasible points.
  for (int j = 0; j < n; ++j) {
    double max_x = 10.0;
    for (int i = 0; i < rows; ++i) {
      const double aij = a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (aij > 1e-12) max_x = std::min(max_x, b[static_cast<std::size_t>(i)] / aij);
    }
    EXPECT_GE(s.objective, c[static_cast<std::size_t>(j)] * max_x - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomPacking, ::testing::Range(1, 17));

// ---- sparse vs dense cross-checks -----------------------------------------

TEST(SimplexCrossCheck, TextbookFixtures) {
  {
    LpModel m(Sense::kMaximize);
    const int x = m.add_variable(0, kInfinity, 3);
    const int y = m.add_variable(0, kInfinity, 5);
    m.add_coefficient(m.add_row(RowType::kLessEqual, 4), x, 1);
    m.add_coefficient(m.add_row(RowType::kLessEqual, 12), y, 2);
    const int r = m.add_row(RowType::kLessEqual, 18);
    m.add_coefficient(r, x, 3);
    m.add_coefficient(r, y, 2);
    cross_check(m);
  }
  {
    LpModel m(Sense::kMinimize);
    const int x = m.add_variable(0, kInfinity, 1);
    const int y = m.add_variable(0, kInfinity, 2);
    int r = m.add_row(RowType::kEqual, 3);
    m.add_coefficient(r, x, 1);
    m.add_coefficient(r, y, 1);
    r = m.add_row(RowType::kGreaterEqual, 1);
    m.add_coefficient(r, x, 1);
    m.add_coefficient(r, y, -1);
    cross_check(m);
  }
  {
    // Infeasible.
    LpModel m(Sense::kMinimize);
    const int x = m.add_variable(0, kInfinity, 1);
    m.add_coefficient(m.add_row(RowType::kGreaterEqual, 5), x, 1);
    m.add_coefficient(m.add_row(RowType::kLessEqual, 3), x, 1);
    cross_check(m);
  }
}

/// Network LPs are the production workload: the full link-MCF models on the
/// repository's topologies must agree between the two solvers on every
/// fixture.
class SimplexCrossCheckNetwork : public ::testing::TestWithParam<int> {};

TEST_P(SimplexCrossCheckNetwork, LinkMcfModelsAgree) {
  DiGraph g;
  switch (GetParam()) {
    case 0: g = make_ring(5); break;
    case 1: g = make_hypercube(3); break;
    case 2: g = make_complete_bipartite(3, 3); break;
    case 3: g = make_generalized_kautz(9, 2); break;
    case 4: g = make_torus({3, 3}); break;
    default: {
      Rng rng(77);
      g = make_random_regular(10, 3, rng);
      break;
    }
  }
  cross_check(build_link_mcf_model(g, TerminalPairs(all_nodes(g))));
}

INSTANTIATE_TEST_SUITE_P(Topologies, SimplexCrossCheckNetwork,
                         ::testing::Range(0, 6));

TEST(SimplexCrossCheck, TsMcfModelAgrees) {
  const DiGraph g = make_ring(5);
  cross_check(
      build_tsmcf_model(g, diameter(g) + 1, TerminalPairs(all_nodes(g))));
}

// ---- warm starts ----------------------------------------------------------

TEST(SimplexWarmStart, ResolveFromOptimalBasisTakesNoPivots) {
  const DiGraph g = make_hypercube(3);
  const LpModel model = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  const LpSolution cold = solve_lp(model);
  ASSERT_TRUE(cold.optimal());
  const LpSolution warm = solve_lp(model, {}, &cold.basis);
  ASSERT_TRUE(warm.optimal());
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.iterations, 0);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
}

/// Property sweep: on randomized network LPs, a warm start from the optimal
/// basis of a capacity-perturbed sibling must reach the same optimum as a
/// cold solve — and a warm start never changes the answer, only the path.
class SimplexWarmStartRandom : public ::testing::TestWithParam<int> {};

TEST_P(SimplexWarmStartRandom, PerturbedResolveMatchesCold) {
  Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  const DiGraph base = make_random_regular(8, 3, rng);
  const LpModel base_model =
      build_link_mcf_model(base, TerminalPairs(all_nodes(base)));
  const LpSolution first = solve_lp(base_model);
  ASSERT_TRUE(first.optimal());

  // Shrink a few capacities (the Fig. 9 move): same LP shape, shifted rhs.
  DiGraph g = base;
  for (int k = 0; k < 3; ++k) {
    const EdgeId e = static_cast<EdgeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
    g.set_capacity(e, 0.5);
  }
  const LpModel perturbed =
      build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  const LpSolution cold = solve_lp(perturbed);
  const LpSolution warm = solve_lp(perturbed, {}, &first.basis);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-6 * std::max(1.0, std::abs(cold.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexWarmStartRandom, ::testing::Range(0, 8));

TEST(SimplexWarmStart, IncompatibleBasisFallsBackToCold) {
  // Basis from a different-shaped LP must be ignored, not crash the solve.
  LpModel small(Sense::kMaximize);
  const int x = small.add_variable(0, kInfinity, 1);
  const int r = small.add_row(RowType::kLessEqual, 2);
  small.add_coefficient(r, x, 1);
  const LpSolution small_sol = solve_lp(small);
  ASSERT_TRUE(small_sol.optimal());

  const DiGraph g = make_ring(4);
  const LpModel big = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  const LpSolution sol = solve_lp(big, {}, &small_sol.basis);
  ASSERT_TRUE(sol.optimal());
  EXPECT_FALSE(sol.warm_started);
  EXPECT_NEAR(sol.objective, solve_lp(big).objective, 1e-9);
}

TEST(SimplexWarmStart, McfEntryPointsRoundTripBases) {
  const DiGraph g = make_hypercube(3);
  LpBasis warm;
  const auto a = solve_link_mcf_exact(g, all_nodes(g), {}, &warm);
  EXPECT_FALSE(warm.empty());
  const auto b = solve_link_mcf_exact(g, all_nodes(g), {}, &warm);
  EXPECT_NEAR(a.concurrent_flow, b.concurrent_flow, 1e-9);
  EXPECT_EQ(b.lp_iterations, 0);
}

// ---- degenerate and bound-flip pivot paths --------------------------------

TEST(SimplexDegenerate, AssignmentProblemHeavilyDegenerate) {
  // 4x4 assignment relaxation: every vertex is massively degenerate; the LP
  // optimum equals the min-cost matching (here the diagonal, cost 4).
  LpModel m(Sense::kMinimize);
  int var[4][4];
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      var[i][j] = m.add_variable(0, 1, i == j ? 1.0 : 10.0 + i + j);
    }
  }
  for (int i = 0; i < 4; ++i) {
    const int r = m.add_row(RowType::kEqual, 1);
    for (int j = 0; j < 4; ++j) m.add_coefficient(r, var[i][j], 1);
  }
  for (int j = 0; j < 4; ++j) {
    const int r = m.add_row(RowType::kEqual, 1);
    for (int i = 0; i < 4; ++i) m.add_coefficient(r, var[i][j], 1);
  }
  const LpSolution s = cross_check(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0, 1e-6);
}

TEST(SimplexDegenerate, TiedRatioTestStillTerminates) {
  // All rows give identical ratios: the tie-break and the Bland fallback
  // must cope without cycling.
  LpModel m(Sense::kMaximize);
  const int x = m.add_variable(0, kInfinity, 1);
  const int y = m.add_variable(0, kInfinity, 1);
  for (int i = 0; i < 6; ++i) {
    const int r = m.add_row(RowType::kLessEqual, 2);
    m.add_coefficient(r, x, 1);
    m.add_coefficient(r, y, 1);
  }
  const LpSolution s = cross_check(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

TEST(SimplexBoundFlip, BoxedNetworkOptimumViaFlipsOnly) {
  // tsMCF-style boxed variables (all f <= 1): the optimum sets most
  // variables at bounds, exercising the flip path of the ratio test.
  LpModel m(Sense::kMaximize);
  const int n = 20;
  std::vector<int> vars;
  const int cap = m.add_row(RowType::kLessEqual, 15.0);
  for (int i = 0; i < n; ++i) {
    const int v = m.add_variable(0, 1, 1.0 + 0.001 * i);
    m.add_coefficient(cap, v, i % 3 == 0 ? 0.5 : 1.0);
    vars.push_back(v);
  }
  const LpSolution s = cross_check(m);
  ASSERT_TRUE(s.optimal());
  for (const int v : vars) {
    EXPECT_LE(s.values[static_cast<std::size_t>(v)], 1.0 + 1e-9);
    EXPECT_GE(s.values[static_cast<std::size_t>(v)], -1e-9);
  }
}

TEST(SimplexCycling, BealeExampleTerminatesAtOptimum) {
  // Beale's classic cycling LP: Dantzig pricing with naive tie-breaking
  // cycles forever on this fixture. The solver's anti-cycling machinery
  // (degenerate-streak Bland fallback) must terminate at the known optimum
  // z* = -1/20 at x = (1/25, 0, 1, 0).
  LpModel m(Sense::kMinimize);
  const int x1 = m.add_variable(0, kInfinity, -0.75);
  const int x2 = m.add_variable(0, kInfinity, 150.0);
  const int x3 = m.add_variable(0, kInfinity, -0.02);
  const int x4 = m.add_variable(0, kInfinity, 6.0);
  int r = m.add_row(RowType::kLessEqual, 0);
  m.add_coefficient(r, x1, 0.25);
  m.add_coefficient(r, x2, -60.0);
  m.add_coefficient(r, x3, -0.04);
  m.add_coefficient(r, x4, 9.0);
  r = m.add_row(RowType::kLessEqual, 0);
  m.add_coefficient(r, x1, 0.5);
  m.add_coefficient(r, x2, -90.0);
  m.add_coefficient(r, x3, -0.02);
  m.add_coefficient(r, x4, 3.0);
  m.add_coefficient(m.add_row(RowType::kLessEqual, 1), x3, 1.0);
  const LpSolution s = cross_check(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -0.05, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x1)], 0.04, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x3)], 1.0, 1e-7);
}

TEST(SimplexCycling, BealeWarmRestorationSurvivesDegeneracy) {
  // Re-solve Beale's LP from its own optimal basis after tightening the x3
  // bound row: the restoration path starts on a massively degenerate vertex
  // and must repair feasibility (via the Bland fallback if it stalls)
  // rather than reporting a failed solve.
  LpModel m(Sense::kMinimize);
  const int x1 = m.add_variable(0, kInfinity, -0.75);
  const int x2 = m.add_variable(0, kInfinity, 150.0);
  const int x3 = m.add_variable(0, kInfinity, -0.02);
  const int x4 = m.add_variable(0, kInfinity, 6.0);
  int r = m.add_row(RowType::kLessEqual, 0);
  m.add_coefficient(r, x1, 0.25);
  m.add_coefficient(r, x2, -60.0);
  m.add_coefficient(r, x3, -0.04);
  m.add_coefficient(r, x4, 9.0);
  r = m.add_row(RowType::kLessEqual, 0);
  m.add_coefficient(r, x1, 0.5);
  m.add_coefficient(r, x2, -90.0);
  m.add_coefficient(r, x3, -0.02);
  m.add_coefficient(r, x4, 3.0);
  const int bound_row = m.add_row(RowType::kLessEqual, 1);
  m.add_coefficient(bound_row, x3, 1.0);
  const LpSolution first = solve_lp(m);
  ASSERT_TRUE(first.optimal());

  LpModel tight(Sense::kMinimize);
  (void)tight.add_variable(0, kInfinity, -0.75);
  (void)tight.add_variable(0, kInfinity, 150.0);
  (void)tight.add_variable(0, kInfinity, -0.02);
  (void)tight.add_variable(0, kInfinity, 6.0);
  r = tight.add_row(RowType::kLessEqual, 0);
  tight.add_coefficient(r, x1, 0.25);
  tight.add_coefficient(r, x2, -60.0);
  tight.add_coefficient(r, x3, -0.04);
  tight.add_coefficient(r, x4, 9.0);
  r = tight.add_row(RowType::kLessEqual, 0);
  tight.add_coefficient(r, x1, 0.5);
  tight.add_coefficient(r, x2, -90.0);
  tight.add_coefficient(r, x3, -0.02);
  tight.add_coefficient(r, x4, 3.0);
  tight.add_coefficient(tight.add_row(RowType::kLessEqual, 0.5), x3, 1.0);
  const LpSolution cold = solve_lp(tight);
  const LpSolution warm = solve_lp(tight, {}, &first.basis, LpWarmMode::kPrimal);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7);
}

// ---- dual simplex ----------------------------------------------------------

TEST(DualSimplex, AdoptsOptimalBasisWithZeroPivots) {
  // Unperturbed re-solve under kDual: the basis is primal and dual feasible,
  // so the dual loop should confirm optimality without a single pivot.
  const DiGraph g = make_hypercube(3);
  const LpModel model = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  const LpSolution cold = solve_lp(model);
  ASSERT_TRUE(cold.optimal());
  const LpSolution dual = solve_lp(model, {}, &cold.basis, LpWarmMode::kDual);
  ASSERT_TRUE(dual.optimal());
  EXPECT_TRUE(dual.warm_started);
  EXPECT_EQ(dual.iterations, 0);
  EXPECT_NEAR(dual.objective, cold.objective, 1e-9);
}

/// The tentpole property: after tightening capacities under an optimal
/// basis (the Fig. 9 move), the basis stays dual feasible and the dual
/// simplex must reach the same optimum a cold solve finds, on every seed.
class DualSimplexCapacitySweep : public ::testing::TestWithParam<int> {};

TEST_P(DualSimplexCapacitySweep, TightenedResolveMatchesCold) {
  Rng rng(static_cast<std::uint64_t>(500 + GetParam()));
  const DiGraph base = make_random_regular(8, 3, rng);
  const LpModel base_model =
      build_link_mcf_model(base, TerminalPairs(all_nodes(base)));
  const LpSolution first = solve_lp(base_model);
  ASSERT_TRUE(first.optimal());

  DiGraph g = base;
  const int hits = 1 + static_cast<int>(rng.next_below(4));
  for (int k = 0; k < hits; ++k) {
    const EdgeId e = static_cast<EdgeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
    g.set_capacity(e, 0.25 + 0.5 * rng.next_double());
  }
  const LpModel perturbed = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  const LpSolution cold = solve_lp(perturbed);
  const LpSolution dual = solve_lp(perturbed, {}, &first.basis, LpWarmMode::kDual);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(dual.optimal());
  EXPECT_NEAR(dual.objective, cold.objective,
              1e-6 * std::max(1.0, std::abs(cold.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualSimplexCapacitySweep, ::testing::Range(0, 10));

TEST(DualSimplex, BoundFlipHeavyBoxes) {
  // Boxed LP whose re-solve shrinks the shared capacity: restoring
  // feasibility in the dual requires crossing many boxed columns in the
  // ratio test, exercising the bound-flipping walk.
  const int n = 24;
  LpModel m(Sense::kMaximize);
  const int cap = m.add_row(RowType::kLessEqual, 18.0);
  for (int i = 0; i < n; ++i) {
    const int v = m.add_variable(0, 1, 1.0 + 0.002 * i);
    m.add_coefficient(cap, v, 1.0);
  }
  const LpSolution first = solve_lp(m);
  ASSERT_TRUE(first.optimal());
  // Top 18 of the 24 boxed columns saturate: 18 + 0.002 * sum(6..23).
  EXPECT_NEAR(first.objective, 18.0 + 0.002 * 261, 1e-6);

  LpModel tight(Sense::kMaximize);
  const int cap2 = tight.add_row(RowType::kLessEqual, 5.0);
  for (int i = 0; i < n; ++i) {
    const int v = tight.add_variable(0, 1, 1.0 + 0.002 * i);
    tight.add_coefficient(cap2, v, 1.0);
  }
  const LpSolution cold = solve_lp(tight);
  const LpSolution dual = solve_lp(tight, {}, &first.basis, LpWarmMode::kDual);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(dual.optimal());
  EXPECT_TRUE(dual.warm_started);
  EXPECT_NEAR(dual.objective, cold.objective, 1e-7);
  // The five highest-value columns fill the shrunk capacity.
  EXPECT_NEAR(dual.objective, 5.0 + 0.002 * (23 + 22 + 21 + 20 + 19), 1e-6);
}

TEST(DualSimplex, DualInfeasibleWarmBasisFallsBackToPrimal) {
  // Flip the objective after the first solve: the old basis keeps primal
  // feasibility but its reduced costs have the wrong signs, so kDual cannot
  // run the dual loop and must land on the primal path — transparently, with
  // the same optimum a cold solve finds.
  const DiGraph g = make_ring(5);
  LpModel model = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  const LpSolution first = solve_lp(model);
  ASSERT_TRUE(first.optimal());

  // Same constraints, inverted sense of progress: maximize -F.
  LpModel flipped = model;
  flipped.set_objective(model.num_variables() - 1, -1.0);
  const LpSolution cold = solve_lp(flipped);
  const LpSolution warm = solve_lp(flipped, {}, &first.basis, LpWarmMode::kDual);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
}

TEST(DualSimplex, TsMcfCapacityUpdateViaEntryPoint) {
  // End-to-end through solve_tsmcf_exact: warm basis round-trips across a
  // capacity update in kDual mode with the objective the cold primal finds
  // on the same model. solve_tsmcf_exact itself runs the dual from the
  // slack basis when cold, so the reference goes through solve_lp directly.
  const DiGraph g = make_ring(5);
  const int steps = diameter(g) + 1;
  LpBasis warm;
  const auto first =
      solve_tsmcf_exact(g, steps, all_nodes(g), {}, &warm, LpWarmMode::kDual);
  ASSERT_FALSE(warm.empty());

  DiGraph tight = g;
  tight.set_capacity(0, 0.5);
  const LpSolution primal = solve_lp(
      build_tsmcf_model(tight, steps, TerminalPairs(all_nodes(tight))));
  ASSERT_TRUE(primal.optimal());
  ASSERT_FALSE(primal.stats.dual_used);
  const auto dual =
      solve_tsmcf_exact(tight, steps, all_nodes(tight), {}, &warm,
                        LpWarmMode::kDual);
  EXPECT_TRUE(dual.lp_stats.dual_used);
  EXPECT_NEAR(dual.total_utilization, primal.objective, 1e-6);
  EXPECT_GE(dual.total_utilization, first.total_utilization - 1e-9);
}

TEST(SimplexBoundFlip, FlipOnlySolveLeavesBasisUntouched) {
  // Optimum reached purely by flipping variables to their upper bounds; the
  // final basis must still round-trip as a warm start.
  LpModel m(Sense::kMaximize);
  for (int i = 0; i < 8; ++i) {
    const int v = m.add_variable(0, 1, 1.0);
    m.add_coefficient(m.add_row(RowType::kLessEqual, 2.0), v, 1.0);
  }
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 8.0, 1e-7);
  const LpSolution again = solve_lp(m, {}, &s.basis);
  ASSERT_TRUE(again.optimal());
  EXPECT_EQ(again.iterations, 0);
}

/// A model presolve cannot collapse: every variable couples several rows.
LpModel overlapping_rows_model(int n) {
  LpModel m(Sense::kMaximize);
  std::vector<int> vars;
  vars.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    vars.push_back(m.add_variable(0, kInfinity, 1.0 + 0.01 * i));
  }
  for (int r = 0; r < n; ++r) {
    const int row = m.add_row(RowType::kLessEqual, 10.0);
    for (int k = 0; k < 5; ++k) {
      m.add_coefficient(row, vars[static_cast<std::size_t>((r * 3 + k * 7) % n)],
                        1.0 + (r + k) % 3);
    }
  }
  return m;
}

TEST(SimplexDeadline, TinyBudgetEndsCooperativelyWithTimeLimit) {
  const LpModel m = overlapping_rows_model(60);
  SimplexOptions opts;
  opts.time_limit_s = 1e-9;  // expires before the first pivot's probe
  const LpSolution cut = solve_lp(m, opts);
  EXPECT_EQ(cut.status, LpStatus::kTimeLimit);
  EXPECT_FALSE(cut.optimal());
  EXPECT_EQ(to_string(cut.status), "time-limit");
}

TEST(SimplexDeadline, GenerousBudgetMatchesUnlimitedOptimum) {
  const LpModel m = overlapping_rows_model(60);
  const LpSolution full = solve_lp(m);
  ASSERT_TRUE(full.optimal());
  SimplexOptions opts;
  opts.time_limit_s = 30.0;
  const LpSolution budgeted = solve_lp(m, opts);
  ASSERT_TRUE(budgeted.optimal());
  EXPECT_NEAR(budgeted.objective, full.objective,
              1e-6 * std::max(1.0, std::abs(full.objective)));
}

TEST(SimplexDeadline, MergeFailedAttemptFoldsForensicsIntoStats) {
  LpSolution out;
  out.iterations = 10;
  out.stats.iterations = 10;
  out.stats.primal_iterations = 10;
  SolverErrorContext context;
  context.iterations = 7;
  context.refactorizations = 3;
  context.phase = "dual";
  lp_detail::merge_failed_attempt(out, context);
  EXPECT_EQ(out.iterations, 17);
  EXPECT_EQ(out.stats.iterations, 17);
  EXPECT_EQ(out.stats.dual_iterations, 7);
  EXPECT_EQ(out.stats.primal_iterations, 10);
  EXPECT_EQ(out.stats.refactorizations, 3);
  // -1 context fields mean "unknown" and must not subtract.
  lp_detail::merge_failed_attempt(out, SolverErrorContext{});
  EXPECT_EQ(out.iterations, 17);
  EXPECT_EQ(out.stats.refactorizations, 3);
}

}  // namespace
}  // namespace a2a
