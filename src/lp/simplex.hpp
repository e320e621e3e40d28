// Bounded-variable two-phase revised simplex.
//
// This is the exact solver behind the MCF formulations (the role MOSEK plays
// in the paper). Two implementations share this interface:
//   * solve_lp() — the production sparse revised simplex: a presolve/
//     postsolve layer (lp/presolve.hpp), CSC constraint storage, sparse-LU
//     basis factors kept alive with Forrest–Tomlin updates (FTRAN/BTRAN are
//     sparse triangular solves, no dense inverse), Devex pricing (sectioned
//     partial pricing on wide models) with incrementally maintained reduced
//     costs, a Harris two-pass bound-flip ratio test, and optional warm
//     starts from a prior basis.
//     Warm starts choose between the primal simplex (with in-place
//     feasibility restoration) and a bounded-variable DUAL simplex that
//     iterates directly on a dual-feasible basis — the natural engine for
//     re-solves whose rhs/bounds moved under an optimal basis (Fig. 9
//     disabled-link sweeps, schedule-cache revalidation, child LPs), and
//     for cold solves of LPs with nonnegative minimization costs, seeded
//     with slack_basis() (the exact tsMCF LP);
//   * solve_lp_dense() — the original dense-inverse Dantzig solver, kept as
//     the cross-check reference and the "before" side of bench_lp.
#pragma once

#include <string>
#include <vector>

#include "lp/model.hpp"

namespace a2a {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  /// The cooperative wall-clock budget (SimplexOptions::time_limit_s)
  /// expired mid-solve. The solution carries the best basis reached so far
  /// (values, objective and an exportable basis), not a certificate of
  /// anything — deadline-bounded re-solves (src/failover/) inspect it and
  /// decide whether the partial answer is worth serving.
  kTimeLimit,
};

/// Basis status of one variable (structural or row slack).
enum class LpVarStatus : unsigned char { kAtLower, kAtUpper, kBasic };

/// A simplex basis: one status per structural variable and one per row (the
/// row's slack). Produced by solve_lp() at the end of every solve; feeding it
/// back as a warm start lets re-solves of the same-shaped LP (the Fig. 9
/// disabled-link sweep, decomposed-MCF child LPs, repeated cache-miss
/// pipeline runs) restart from a near-optimal basis instead of from scratch.
struct LpBasis {
  std::vector<LpVarStatus> variables;
  std::vector<LpVarStatus> rows;

  [[nodiscard]] bool empty() const { return variables.empty() && rows.empty(); }
  [[nodiscard]] bool compatible(int num_variables, int num_rows) const {
    return static_cast<int>(variables.size()) == num_variables &&
           static_cast<int>(rows.size()) == num_rows;
  }
};

/// Per-solve engine statistics (sparse solver only; the dense reference
/// leaves them zero). Filled for every solve, independent of the obs layer's
/// runtime switch — these are plain counters the engine maintains anyway.
/// The same numbers feed the `lp.*` metrics (src/obs/metrics.hpp), so a
/// bench record and a live dashboard agree by construction.
struct LpStats {
  long long iterations = 0;         ///< pivots across phases and retries.
  long long primal_iterations = 0;  ///< pivots taken by the primal loops.
  long long dual_iterations = 0;    ///< pivots taken by the dual simplex.
  long long refactorizations = 0;   ///< full LU factorizations of the basis.
  long long ft_updates = 0;         ///< accepted Forrest–Tomlin updates.
  /// FT updates refused transactionally (unstable spike diagonal) — each one
  /// forced a refactorization instead.
  long long ft_refusals = 0;
  /// Harris ratio tests whose second pass ran (pass 1 found a degenerate or
  /// near-degenerate step worth re-picking for pivot size).
  long long harris_second_pass = 0;
  /// Transitions into Bland's rule (anti-cycling episodes), primal + dual.
  long long bland_episodes = 0;
  bool dual_used = false;           ///< the dual simplex drove this solve.
  /// 1 when the warm/FT path threw SolverError and the solve succeeded only
  /// on the cold conservative retry (eta updates, Harris off).
  int cold_retries = 0;
  /// Presolve reductions (lp/presolve.hpp), zero when presolve was off.
  long long presolve_fixed_variables = 0;
  long long presolve_empty_columns = 0;
  long long presolve_empty_rows = 0;
  long long presolve_singleton_rows = 0;
  long long presolve_tightened_bounds = 0;

  /// Merge another solve's counts (cold retries, presolve-reduced inner
  /// solves) into this one.
  void accumulate(const LpStats& other) {
    iterations += other.iterations;
    primal_iterations += other.primal_iterations;
    dual_iterations += other.dual_iterations;
    refactorizations += other.refactorizations;
    ft_updates += other.ft_updates;
    ft_refusals += other.ft_refusals;
    harris_second_pass += other.harris_second_pass;
    bland_episodes += other.bland_episodes;
    dual_used = dual_used || other.dual_used;
    cold_retries += other.cold_retries;
    presolve_fixed_variables += other.presolve_fixed_variables;
    presolve_empty_columns += other.presolve_empty_columns;
    presolve_empty_rows += other.presolve_empty_rows;
    presolve_singleton_rows += other.presolve_singleton_rows;
    presolve_tightened_bounds += other.presolve_tightened_bounds;
  }
};

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;          ///< in the model's original sense.
  std::vector<double> values;      ///< primal values of structural variables.
  long long iterations = 0;
  double solve_seconds = 0.0;
  /// Final basis (sparse solver only); reusable via solve_lp()'s warm start.
  LpBasis basis;
  /// True when a supplied warm-start basis was actually used (it can be
  /// rejected when incompatible, singular, or primal infeasible).
  bool warm_started = false;
  /// Engine statistics for this solve (see LpStats).
  LpStats stats;

  [[nodiscard]] bool optimal() const { return status == LpStatus::kOptimal; }
};

/// How the sparse solver keeps the basis factorization alive between
/// refactorizations.
///
///   kForrestTomlin — update the LU factors in place (Forrest & Tomlin 1972):
///                    each pivot swaps one U column for the partially solved
///                    entering column and records ONE sparse row eta, so
///                    FTRAN/BTRAN cost is bounded by U's sparsity instead of
///                    growing by a full transformed column per pivot.
///                    Refactorization triggers on fill growth or an unstable
///                    transformed diagonal, not on a fixed pivot count.
///   kEta           — the PR 2 product-form eta file, kept as the
///                    cross-check reference (bench_lp's "before" side and the
///                    eta-vs-FT differential tests).
enum class LpBasisUpdate { kForrestTomlin, kEta };

struct SimplexOptions {
  long long max_iterations = 2'000'000;
  /// Wall-clock budget for the whole solve in seconds; 0 = unlimited. The
  /// iteration loops (primal, dual, warm-basis restoration) check the clock
  /// cooperatively every few pivots and end the solve with kTimeLimit —
  /// exporting the best basis reached so far — instead of running on or
  /// throwing. The budget is absolute across a solve_lp() call: presolve,
  /// a failed warm attempt and the cold fallback all draw from the same
  /// allowance, so a deadline-bounded caller overshoots by at most one
  /// check interval plus one refactorization.
  double time_limit_s = 0.0;
  /// Sparse solver: how the basis factors follow the pivots (see
  /// LpBasisUpdate).
  LpBasisUpdate basis_update = LpBasisUpdate::kForrestTomlin;
  /// kEta only: eta-file length before the basis is refactorized. Each
  /// pivot appends one eta vector, so FTRAN/BTRAN cost grows linearly with
  /// this; sparse refactorization is cheap enough to keep it short.
  int eta_limit = 96;
  /// kForrestTomlin only: hard backstop on updates between refactorizations.
  /// Fill growth and diagonal stability are the adaptive triggers, but the
  /// backstop also clamps x_basic_/reduced-cost drift (refactorization is
  /// when both are recomputed): ill-conditioned tsMCF bases go numerically
  /// singular when hundreds of pivots run without a refresh, so this stays
  /// a small multiple of the old eta cadence.
  int ft_update_limit = 192;
  /// kForrestTomlin only: refactorize when the live U fill plus row-eta
  /// entries exceed this multiple of the fresh factorization's fill — the
  /// "FTRAN/BTRAN cost is growing" signal.
  double refactor_fill_growth = 3.0;
  /// kForrestTomlin only: an update whose transformed spike diagonal is
  /// below this (relative to the spike's largest entry) is refused and the
  /// basis refactorized instead.
  double ft_diag_tol = 1e-9;
  /// Run the presolve/postsolve layer (lp/presolve.hpp: fixed-variable and
  /// empty/singleton row-column elimination, bound tightening) before the
  /// simplex and map the solution and basis back afterwards. Warm-start
  /// bases thread through: they are mapped into the reduced space on entry
  /// and the exported basis covers the full original model.
  bool presolve = true;
  /// Use Harris two-pass ratio tests (Harris 1973) in the primal and dual
  /// loops: pass 1 computes the best ratio with bounds relaxed by the
  /// feasibility/optimality tolerance, pass 2 picks the largest pivot among
  /// candidates within that relaxed bound — trading a bounded, tolerance-
  /// sized constraint violation for numerically safer pivots and fewer
  /// degenerate stalls on MCF bases.
  bool harris_ratio = true;
  /// Partial (sectioned) Devex pricing kicks in above this many columns:
  /// the entering-candidate scan walks rotating sections of the column range
  /// and stops at the first section containing an attractive candidate,
  /// instead of pricing all 50k pMCF columns every pivot. 0 disables.
  int partial_pricing_threshold = 4096;
};

// Fixed tolerances and limits of the simplex engines. schedule_fingerprint()
// feeds the first four, so changing one of them re-keys every cached
// schedule.
inline constexpr double kLpFeasibilityTol = 1e-7;
inline constexpr double kLpOptimalityTol = 1e-7;
inline constexpr double kLpPivotTol = 1e-9;
/// Non-improving pivots before Bland.
inline constexpr int kLpStallLimit = 8000;
/// Phase-1 objective above this at phase-1 optimality means infeasible.
inline constexpr double kLpPhase1Tol = 1e-6;
/// Magnitudes below this are treated as exact zeros: entries dropped from
/// eta vectors, pivot-row scan cutoffs, and the degenerate-step threshold.
/// Shared by the primal and dual ratio tests.
inline constexpr double kLpDropTol = 1e-12;
/// A pivot magnitude below this forces an immediate refactorization after
/// the pivot is applied (the eta vector it would leave behind is too
/// ill-conditioned to keep).
inline constexpr double kLpRefactorPivotTol = 1e-8;
/// Degenerate (zero-step) pivots in a row before the restoration and dual
/// loops switch to Bland's rule to break the cycle.
inline constexpr int kLpDegenerateStreakLimit = 64;
/// Relative cost perturbation the dual simplex applies to nonbasic
/// columns (in their dual-feasible direction) before iterating, so that
/// totally dual-degenerate warm bases — the norm for max-concurrent-flow
/// optima — still make strict progress. Removed before the solution is
/// reported; the primal polishes the residue.
inline constexpr double kLpDualPerturb = 1e-5;

/// How solve_lp() exploits a supplied warm-start basis.
///
///   kPrimal — adopt the basis when primal feasible (skipping phase 1); when
///             the instance's rhs/bounds moved under it, repair primal
///             feasibility in place (artificial-free restoration) and finish
///             with the primal simplex.
///   kDual   — adopt the basis when it is still DUAL feasible (reduced costs
///             have the optimal signs — always true when only rhs/bounds
///             changed since the basis was optimal, and for slack_basis()
///             of a model whose minimization costs are all nonnegative) and
///             run the dual simplex directly on it, with no phase-1/
///             restoration work at all. Falls back to the primal path when
///             the basis is dual infeasible.
///   kAuto   — primal-feasible basis: primal phase 2 (nothing to repair);
///             otherwise prefer the dual when the basis is dual feasible,
///             else primal restoration. The right default for perturbed
///             re-solves (Fig. 9 sweeps, cache revalidation, child LPs).
enum class LpWarmMode { kPrimal, kDual, kAuto };

/// Solves `model` with the sparse revised simplex; throws SolverError only on
/// internal numerical failure (singular basis after refactorization).
/// Infeasible/unbounded are reported via the status field. A non-null
/// `warm_start` seeds the initial basis when it is compatible with the
/// model's shape; `warm_mode` picks how it is exploited (see LpWarmMode).
/// A structurally broken, singular, or unusable basis silently falls back to
/// the cold crash path.
[[nodiscard]] LpSolution solve_lp(const LpModel& model,
                                  const SimplexOptions& options = {},
                                  const LpBasis* warm_start = nullptr,
                                  LpWarmMode warm_mode = LpWarmMode::kAuto);

/// Warm-start protocol shared by every MCF entry point: seeds from `*warm`
/// when it is non-null and non-empty, and writes the final basis back on an
/// optimal solve so the caller's next same-shaped LP restarts near-optimal.
[[nodiscard]] LpSolution solve_lp_warm(const LpModel& model,
                                       const SimplexOptions& options,
                                       LpBasis* warm,
                                       LpWarmMode warm_mode = LpWarmMode::kAuto);

/// The all-slack basis of `model`: every structural nonbasic at its lower
/// bound and every row's slack basic. It is trivially nonsingular, and it is
/// dual feasible whenever the minimization costs are nonnegative and every
/// structural has a finite lower bound — then solve_lp(model, options,
/// &basis, LpWarmMode::kDual) runs the dual simplex from it with no phase 1.
[[nodiscard]] LpBasis slack_basis(const LpModel& model);

/// Reference implementation: the original dense-inverse Dantzig simplex.
/// Same statuses and objectives; no basis export and no warm starts.
[[nodiscard]] LpSolution solve_lp_dense(const LpModel& model,
                                        const SimplexOptions& options = {});

[[nodiscard]] std::string to_string(LpStatus status);

}  // namespace a2a
