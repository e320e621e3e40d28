// LP presolve/postsolve layer.
//
// Runs ahead of the sparse simplex (solve_lp() calls it by default) and
// shrinks the model with equivalence-preserving reductions before any basis
// is ever factored:
//   * fixed-variable elimination — columns whose bounds pin them (the MCF
//     builders fix "useless circulation" flow variables to [0,0]; tsMCF
//     fixes step-1 receives) are substituted into the rhs and dropped;
//   * empty-row elimination — rows with no live entries are consistency-
//     checked against their rhs and dropped (or prove infeasibility);
//   * singleton-row elimination — a row with one live entry is a bound in
//     disguise: it tightens the variable's bounds and is dropped;
//   * empty-column elimination — a variable in no live row moves to its
//     objective-optimal bound (kept only when that bound is finite, so an
//     unbounded ray is never hidden from the solver);
//   * bound tightening — the singleton-row bounds cascade (a tightened
//     bound can fix a variable, fixing can empty a row, ...) until a fixed
//     point.
//
// The reductions are deliberately STRUCTURAL: which rows/columns die depends
// only on the constraint pattern and bounds, not on capacity values, so the
// same-shaped LPs of a Fig. 9 sweep reduce identically and warm bases thread
// straight through — map_warm_basis() projects a full-model basis into the
// reduced space, and postsolve() lifts the reduced solution AND basis back
// (eliminated columns nonbasic at their bound, dropped rows basic slack), so
// the exported basis always covers the full original model.
#pragma once

#include <vector>

#include "lp/simplex.hpp"

namespace a2a {

struct PresolveStats {
  int fixed_variables = 0;
  int empty_columns = 0;
  int empty_rows = 0;
  int singleton_rows = 0;
  int tightened_bounds = 0;

  [[nodiscard]] bool any() const {
    return fixed_variables + empty_columns + empty_rows + singleton_rows +
               tightened_bounds >
           0;
  }
};

class Presolve {
 public:
  enum class Result {
    kUnchanged,   ///< nothing to reduce; solve the original model.
    kReduced,     ///< reduced() is smaller (or tighter); solve it instead.
    kSolved,      ///< everything eliminated; postsolve() yields the optimum.
    kInfeasible,  ///< a reduction proved the model infeasible.
    kUnbounded,   ///< a free objective ray survived with no constraints.
  };

  Result run(const LpModel& model);

  [[nodiscard]] const LpModel& reduced() const { return reduced_; }
  [[nodiscard]] const PresolveStats& stats() const { return stats_; }

  /// Projects a full-model warm basis into the reduced space. Returns false
  /// (leaving *out untouched) when the basis does not transfer — wrong
  /// shape, or an eliminated variable was basic so the projected basis
  /// count no longer matches the reduced row count.
  [[nodiscard]] bool map_warm_basis(const LpBasis& full, LpBasis* out) const;

  /// Lifts a reduced-space solution back to the original model: values for
  /// eliminated variables, the objective recomputed against `original`, and
  /// a full-model basis (dropped rows exported as basic slacks). Copies
  /// status/iterations/timing from `reduced_sol`.
  void postsolve(const LpModel& original, const LpSolution& reduced_sol,
                 LpSolution* out) const;

 private:
  LpModel reduced_;
  PresolveStats stats_;
  int orig_rows_ = 0;
  int orig_vars_ = 0;
  std::vector<int> var_map_;  ///< original var -> reduced var, or -1.
  std::vector<int> row_map_;  ///< original row -> reduced row, or -1.
  std::vector<double> eliminated_value_;  ///< per original var (when dead).
  std::vector<unsigned char> eliminated_at_upper_;
};

}  // namespace a2a
