// Shared basis engine of the sparse revised simplex (internal header).
//
// SimplexCore owns everything the primal and dual iteration loops have in
// common: the CSC/CSR constraint storage in standard form, variable bounds
// and phase costs, the basis arrays, the sparse LU kept alive by
// Forrest–Tomlin factor updates (or the legacy product-form eta file in
// kEta mode), warm-start basis import, reduced-cost recomputation, and
// solution export. The two drivers live in separate translation units:
//   * simplex.cpp      — run_primal(): two-phase primal simplex with Devex
//     pricing, the bound-flip ratio test, and artificial-free feasibility
//     restoration for warm bases whose basic values moved out of bounds;
//   * dual_simplex.cpp — run_dual(): bounded-variable dual simplex (leaving
//     row by largest scaled primal infeasibility, dual ratio test with bound
//     flipping) that adopts a dual-feasible warm basis with no phase-1 work.
//
// Not part of the public API — include lp/simplex.hpp instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

#include "lp/simplex.hpp"
#include "lp/sparse.hpp"
#include "lp/sparse_lu.hpp"

namespace a2a::lp_detail {

// Same underlying values as LpVarStatus so basis import/export is a cast.
enum class VarState : unsigned char { kAtLower, kAtUpper, kBasic };

class SimplexCore {
 public:
  SimplexCore(const LpModel& model, const SimplexOptions& options,
              const LpBasis* warm_start);

  /// True when the supplied warm-start basis was adopted.
  [[nodiscard]] bool warm_started() const { return warm_started_; }
  /// True when a warm-start basis was adopted but the primal path's
  /// feasibility restoration failed — the caller should re-solve cold.
  [[nodiscard]] bool warm_failed() const { return warm_failed_; }
  /// True when the adopted warm basis has basic values outside their bounds
  /// (the instance's rhs/bounds moved under it).
  [[nodiscard]] bool needs_restoration() const { return needs_restoration_; }

  /// True when the current reduced costs (phase-2 costs, already computed at
  /// construction) have the optimal signs — every at-lower nonbasic has
  /// d_j >= -tol and every at-upper nonbasic d_j <= tol. A basis that was
  /// optimal before a pure rhs/bound perturbation always passes.
  [[nodiscard]] bool dual_feasible() const;

  /// Two-phase primal simplex (phase 1 only from a cold crash basis; warm
  /// bases repair feasibility in place). Defined in simplex.cpp.
  LpSolution run_primal(const LpModel& model);

  /// Bounded-variable dual simplex on the adopted warm basis (a prior
  /// optimum or slack_basis()). Must only be called when warm_started() &&
  /// dual_feasible(). Any outcome other than kOptimal/kUnbounded means the
  /// caller should fall back to a cold primal solve (the dual loop never
  /// declares infeasibility itself — drift could fake it, and the primal is
  /// the authoritative oracle). Defined in dual_simplex.cpp.
  LpSolution run_dual(const LpModel& model);

 protected:
  // ---- construction helpers (simplex_core.cpp) ----------------------------
  void build(const LpModel& model, const LpBasis* warm_start);
  bool try_warm_start(const LpBasis& warm);
  void crash_basis();

  [[nodiscard]] int num_vars() const { return cols_.num_cols(); }
  [[nodiscard]] bool fixed(int j) const { return up_[j] - lo_[j] < 1e-30; }

  void set_phase_costs(bool phase1);
  [[nodiscard]] double phase_objective() const;

  // ---- linear algebra (simplex_core.cpp) ----------------------------------
  /// `save_spike` additionally captures the Forrest–Tomlin spike (the
  /// partial solve before U) for a subsequent update_factors() of the same
  /// column; only compute_column() sets it.
  void ftran_full(std::vector<double>& x, bool save_spike = false);
  void btran_full(std::vector<double>& y);
  /// alpha <- B^-1 A_j: dense scatter of column j, then a full FTRAN. The
  /// Forrest–Tomlin spike of column j is captured as a side effect, so a
  /// pivot on j can update the factors without re-solving.
  void compute_column(int j, std::vector<double>& alpha);
  /// Row `row` of B^-1 A via rho = B^-T e_row and the CSR mirror: nonzeros
  /// accumulate into `accum` (which must be all-zero on entry) with their
  /// column indices appended to `touched` (cleared here first).
  void compute_pivot_row(int row, std::vector<double>& rho,
                         std::vector<double>& accum,
                         std::vector<int>& touched);
  /// Folds the pivot (entering column `alpha`, basis position `row`) into
  /// the live factorization: a Forrest–Tomlin update of the LU factors (the
  /// default), or an appended product-form eta in kEta mode. Returns true
  /// when the caller must refactorize — the FT update was refused as
  /// unstable, fill grew past SimplexOptions::refactor_fill_growth, or the
  /// update/eta count hit its backstop.
  [[nodiscard]] bool update_factors(int row, const std::vector<double>& alpha);
  void append_eta(int row, const std::vector<double>& alpha);
  void clear_etas();
  void refactorize();
  void recompute_reduced_costs();

  /// Cooperative deadline probe for the iteration loops. Rate-limited to one
  /// clock read per 64 calls (the first call always reads, so an
  /// already-expired budget exits before any pivot); once it fires,
  /// time_expired() stays true for the rest of this core's life.
  [[nodiscard]] bool time_exceeded();
  [[nodiscard]] bool time_expired() const { return time_expired_; }

  /// Writes values, objective, basis, iteration count and wall time into
  /// `out` from the current state.
  void finish(LpSolution& out, const LpModel& model,
              std::chrono::steady_clock::time_point start);

  // ---- drivers (simplex.cpp) ----------------------------------------------
  bool restore_feasibility();
  LpStatus iterate_primal();

  // ---- drivers (dual_simplex.cpp) -----------------------------------------
  LpStatus iterate_dual();

  const SimplexOptions options_;
  const int m_;
  int n_structural_ = 0;
  bool needs_phase1_ = false;
  bool needs_restoration_ = false;
  bool warm_started_ = false;
  bool warm_failed_ = false;
  long long iterations_ = 0;
  /// Engine counters for this core's run, exported via finish() into
  /// LpSolution::stats and pushed once (there, not per event) into the
  /// global `lp.*` metrics. Plain ints: the iteration loops never touch an
  /// atomic.
  LpStats stats_;
  /// Which loop currently drives the engine ("phase1", "primal", "dual",
  /// "restore") — carried as context on SolverError when the basis goes
  /// singular.
  const char* phase_ = "build";

  /// Wall-clock budget (SimplexOptions::time_limit_s), armed at
  /// construction; time_point{} means unlimited.
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  bool time_expired_ = false;
  std::uint32_t deadline_probe_ = ~0u;  ///< ++ wraps to 0: first call probes.

  CscMatrix cols_;  ///< structural, slack, then artificial columns.
  CsrMatrix csr_;
  std::vector<double> lo_, up_, cost_, work_cost_;
  std::vector<double> rhs_, row_sign_;

  std::vector<int> basic_;  ///< basis variable per row.
  std::vector<double> x_basic_;
  std::vector<VarState> state_;
  std::vector<double> x_nonbasic_value_;

  SparseLu lu_;
  std::vector<double> lu_scratch_;
  const bool use_ft_;  ///< basis_update == kForrestTomlin.
  /// Forrest–Tomlin spike of the last compute_column() (the partial FTRAN
  /// before the U solve), consumed by update_factors() at the pivot.
  std::vector<double> ft_spike_;
  // kEta mode only — product-form eta file (flat arrays): eta e replaces
  // basis position eta_row_[e] with the FTRAN'd entering column.
  std::vector<int> eta_row_;
  std::vector<double> eta_pivot_;
  std::vector<int> eta_ptr_{0};
  std::vector<int> eta_pos_;
  std::vector<double> eta_val_;

  std::vector<double> d_;       ///< maintained reduced costs (nonbasic).
  std::vector<double> weight_;  ///< Devex reference weights (primal, per column).
  std::vector<double> dual_weight_;  ///< dual Devex weights (per basis row).
  int pricing_cursor_ = 0;  ///< partial-pricing scan position (primal).
};

/// Folds the forensics of a failed solve attempt (carried on the
/// SolverError that aborted it — its core never ran finish(), so the work
/// it did would otherwise vanish) into the cold retry's solution stats and
/// the global lp.* counters. Exposed for the cold-retry accounting tests.
void merge_failed_attempt(LpSolution& out, const SolverErrorContext& context);

}  // namespace a2a::lp_detail
