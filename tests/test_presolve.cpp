// Presolve/postsolve layer tests: the individual reductions, infeasibility
// and unboundedness detection, postsolved solution/basis fidelity, and warm
// bases threading through the presolved path.
#include "lp/presolve.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/algorithms.hpp"
#include "graph/topologies.hpp"
#include "mcf/concurrent_flow.hpp"
#include "mcf/timestepped.hpp"

namespace a2a {
namespace {

SimplexOptions no_presolve() {
  SimplexOptions o;
  o.presolve = false;
  return o;
}

/// |A x - rhs| feasibility of `values` against every row of `model`.
void expect_feasible(const LpModel& model, const std::vector<double>& values,
                     double tol) {
  ASSERT_EQ(static_cast<int>(values.size()), model.num_variables());
  std::vector<double> activity(static_cast<std::size_t>(model.num_rows()), 0.0);
  for (int j = 0; j < model.num_variables(); ++j) {
    EXPECT_GE(values[static_cast<std::size_t>(j)], model.lower(j) - tol);
    EXPECT_LE(values[static_cast<std::size_t>(j)], model.upper(j) + tol);
    for (const auto& e : model.column(j)) {
      activity[static_cast<std::size_t>(e.row)] +=
          e.value * values[static_cast<std::size_t>(j)];
    }
  }
  for (int r = 0; r < model.num_rows(); ++r) {
    const double a = activity[static_cast<std::size_t>(r)];
    const double b = model.rhs(r);
    const double rtol = tol * std::max(1.0, std::abs(b));
    switch (model.row_type(r)) {
      case RowType::kLessEqual: EXPECT_LE(a, b + rtol); break;
      case RowType::kGreaterEqual: EXPECT_GE(a, b - rtol); break;
      case RowType::kEqual: EXPECT_NEAR(a, b, rtol); break;
    }
  }
}

TEST(Presolve, FixedVariableSubstitutesIntoRhs) {
  // min x + 2z + y  s.t.  x + z + y >= 4, x - z <= 1, with y fixed to 1 by
  // its bounds: y substitutes into the first rhs (4 -> 3) and two coupled
  // variables survive, so the reduction stops at a smaller model instead of
  // solving outright.
  LpModel m(Sense::kMinimize);
  const int x = m.add_variable(0, kInfinity, 1);
  const int z = m.add_variable(0, kInfinity, 2);
  const int y = m.add_variable(1, 1, 1);
  const int r = m.add_row(RowType::kGreaterEqual, 4);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, z, 1);
  m.add_coefficient(r, y, 1);
  const int r2 = m.add_row(RowType::kLessEqual, 1);
  m.add_coefficient(r2, x, 1);
  m.add_coefficient(r2, z, -1);
  Presolve pre;
  ASSERT_EQ(pre.run(m), Presolve::Result::kReduced);
  EXPECT_EQ(pre.stats().fixed_variables, 1);
  EXPECT_EQ(pre.reduced().num_variables(), 2);
  EXPECT_NEAR(pre.reduced().rhs(0), 3.0, 1e-12);
  // x + z >= 3, x - z <= 1: optimum x = 2, z = 1 -> 2 + 2 + 1 = 5.
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 5.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(y)], 1.0, 1e-12);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 2.0, 1e-7);
}

TEST(Presolve, SingletonRowBecomesBound) {
  // max x + y  s.t.  x <= 2 (a singleton row), x + y <= 3.
  LpModel m(Sense::kMaximize);
  const int x = m.add_variable(0, kInfinity, 1);
  const int y = m.add_variable(0, kInfinity, 1);
  m.add_coefficient(m.add_row(RowType::kLessEqual, 2), x, 1);
  const int r = m.add_row(RowType::kLessEqual, 3);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  Presolve pre;
  ASSERT_EQ(pre.run(m), Presolve::Result::kReduced);
  EXPECT_EQ(pre.stats().singleton_rows, 1);
  EXPECT_EQ(pre.reduced().num_rows(), 1);
  EXPECT_NEAR(pre.reduced().upper(0), 2.0, 1e-12);
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
}

TEST(Presolve, SingletonEqualityCascadesToFix) {
  // 2x = 6 fixes x = 3; substitution turns the coupled row into a bound on
  // y; everything reduces away.
  LpModel m(Sense::kMinimize);
  const int x = m.add_variable(0, kInfinity, 1);
  const int y = m.add_variable(0, kInfinity, 2);
  m.add_coefficient(m.add_row(RowType::kEqual, 6), x, 2);
  const int r = m.add_row(RowType::kGreaterEqual, 5);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  const LpSolution s = solve_lp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 3.0, 1e-9);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(y)], 2.0, 1e-9);
  EXPECT_NEAR(s.objective, 7.0, 1e-9);
  EXPECT_EQ(s.iterations, 0) << "fully presolved: no simplex pivots at all";
}

TEST(Presolve, DetectsInfeasibleSingletonAndEmptyRows) {
  {
    // x <= 1 and x >= 3 through singleton rows.
    LpModel m(Sense::kMinimize);
    const int x = m.add_variable(0, kInfinity, 1);
    m.add_coefficient(m.add_row(RowType::kLessEqual, 1), x, 1);
    m.add_coefficient(m.add_row(RowType::kGreaterEqual, 3), x, 1);
    EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
  }
  {
    // A fixed variable empties a row into 2 <= 1: infeasible.
    LpModel m(Sense::kMinimize);
    const int x = m.add_variable(2, 2, 0);
    m.add_coefficient(m.add_row(RowType::kLessEqual, 1), x, 1);
    EXPECT_EQ(solve_lp(m).status, LpStatus::kInfeasible);
  }
}

TEST(Presolve, DetectsUnboundedAfterFullReduction) {
  // The only row is satisfied by the fixed variable; y has negative min-cost
  // direction and no upper bound.
  LpModel m(Sense::kMaximize);
  const int x = m.add_variable(1, 1, 0);
  const int y = m.add_variable(0, kInfinity, 1);
  m.add_coefficient(m.add_row(RowType::kLessEqual, 2), x, 1);
  (void)y;
  EXPECT_EQ(solve_lp(m).status, LpStatus::kUnbounded);
}

TEST(Presolve, PostsolvedBasisReimportsCleanly) {
  // Solve a reducible MCF LP with presolve, feed the exported full-model
  // basis back as a warm start: it must be adopted and re-solve in O(1)
  // pivots.
  const DiGraph g = make_generalized_kautz(8, 4);
  const LpModel model = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  const LpSolution first = solve_lp(model);
  ASSERT_TRUE(first.optimal());
  ASSERT_TRUE(first.basis.compatible(model.num_variables(), model.num_rows()));
  const LpSolution second = solve_lp(model, {}, &first.basis, LpWarmMode::kAuto);
  ASSERT_TRUE(second.optimal());
  EXPECT_TRUE(second.warm_started);
  EXPECT_NEAR(first.objective, second.objective, 1e-9);
  EXPECT_LE(second.iterations, first.iterations / 4)
      << "warm re-solve through presolve should be near-free";
}

TEST(Presolve, OnAndOffAgreeOnMcfModels) {
  const DiGraph gk = make_generalized_kautz(10, 4);
  const DiGraph hc = make_hypercube(3);
  const std::vector<LpModel> models = {
      build_link_mcf_model(gk, TerminalPairs(all_nodes(gk))),
      build_tsmcf_model(hc, diameter(hc) + 1, TerminalPairs(all_nodes(hc))),
  };
  for (const LpModel& model : models) {
    const LpSolution off = solve_lp(model, no_presolve());
    const LpSolution on = solve_lp(model);
    ASSERT_TRUE(off.optimal());
    ASSERT_TRUE(on.optimal());
    EXPECT_NEAR(off.objective, on.objective,
                1e-7 * std::max(1.0, std::abs(off.objective)));
    expect_feasible(model, on.values, 1e-6);
  }
}

TEST(Presolve, WarmBasisThreadsThroughPerturbedResolves) {
  // The Fig. 9 pattern under presolve: the reductions are structural, so
  // the full-model basis maps into every scenario's reduced space and the
  // dual-warm re-solve stays cheaper than cold.
  const DiGraph base = make_generalized_kautz(10, 4);
  const auto nodes = all_nodes(base);
  LpBasis warm;
  const LpSolution first = solve_lp_warm(
      build_link_mcf_model(base, TerminalPairs(nodes)), {}, &warm);
  ASSERT_TRUE(first.optimal());
  Rng rng(4242);
  DiGraph g = base;
  for (int hit = 0; hit < 2; ++hit) {
    g.set_capacity(static_cast<EdgeId>(rng.next_below(
                       static_cast<std::uint64_t>(g.num_edges()))),
                   1e-6);
  }
  const LpModel perturbed = build_link_mcf_model(g, TerminalPairs(nodes));
  const LpSolution cold = solve_lp(perturbed);
  LpBasis warm_copy = warm;
  const LpSolution resolved =
      solve_lp_warm(perturbed, {}, &warm_copy, LpWarmMode::kDual);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(resolved.optimal());
  EXPECT_TRUE(resolved.warm_started);
  EXPECT_NEAR(cold.objective, resolved.objective,
              1e-6 * std::max(1.0, std::abs(cold.objective)));
  EXPECT_LT(resolved.iterations, cold.iterations);
  expect_feasible(perturbed, resolved.values, 1e-6);
}

TEST(Presolve, MapWarmBasisRejectsBasicEliminatedColumn) {
  // Two live variables coupled through two rows keep the reduction from
  // solving the model outright; y is eliminated as fixed.
  LpModel m(Sense::kMinimize);
  const int x = m.add_variable(0, kInfinity, 1);
  const int z = m.add_variable(0, kInfinity, 1);
  const int y = m.add_variable(2, 2, 1);  // fixed: eliminated
  const int r = m.add_row(RowType::kGreaterEqual, 4);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, z, 1);
  m.add_coefficient(r, y, 1);
  const int r2 = m.add_row(RowType::kLessEqual, 1);
  m.add_coefficient(r2, x, 1);
  m.add_coefficient(r2, z, -1);
  Presolve pre;
  ASSERT_EQ(pre.run(m), Presolve::Result::kReduced);
  LpBasis full;
  full.variables = {LpVarStatus::kAtLower, LpVarStatus::kAtLower,
                    LpVarStatus::kBasic};
  full.rows = {LpVarStatus::kBasic, LpVarStatus::kBasic};
  LpBasis mapped;
  EXPECT_FALSE(pre.map_warm_basis(full, &mapped))
      << "eliminated y marked basic must not transfer";
  full.variables = {LpVarStatus::kBasic, LpVarStatus::kAtLower,
                    LpVarStatus::kAtLower};
  full.rows = {LpVarStatus::kAtLower, LpVarStatus::kBasic};
  ASSERT_TRUE(pre.map_warm_basis(full, &mapped));
  EXPECT_EQ(mapped.variables.size(), 2u);
  EXPECT_EQ(mapped.rows.size(), 2u);
}

}  // namespace
}  // namespace a2a
