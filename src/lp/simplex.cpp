// Primal driver of the sparse revised simplex and the solve_lp() dispatch.
//
// The basis engine (standard-form construction, warm-start import, sparse LU
// + eta file, reduced costs) lives in simplex_core.{hpp,cpp} and is shared
// with the dual simplex (dual_simplex.cpp). This file owns:
//   * run_primal() — two-phase primal simplex: Devex pricing with
//     incrementally maintained reduced costs, a bound-flip ratio test, and
//     artificial-free feasibility restoration for warm bases whose basic
//     values moved out of bounds;
//   * solve_lp() — warm-mode dispatch between the primal and dual drivers,
//     with a cold primal re-solve as the fallback whenever a warm path
//     resists repair.
#include "lp/simplex.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string_view>

#include "lp/presolve.hpp"
#include "lp/simplex_core.hpp"
#include "obs/metrics.hpp"

namespace a2a {

namespace lp_detail {

LpSolution SimplexCore::run_primal(const LpModel& model) {
  const auto start = std::chrono::steady_clock::now();
  LpSolution out;
  out.warm_started = warm_started_;
  if (needs_restoration_) {
    // Warm basis adopted with out-of-bound basic values (e.g. the Fig. 9
    // sweep shrank capacities under the previous optimum). Artificial-free
    // composite phase 1: drive the infeasibility sum to zero in place.
    phase_ = "restore";
    if (!restore_feasibility()) {
      // A deadline expiry mid-restoration is not a repair failure: report
      // kTimeLimit with the basis as-is instead of sending the dispatch to
      // a cold solve the budget can no longer pay for.
      if (time_expired()) {
        out.status = LpStatus::kTimeLimit;
        finish(out, model, start);
        return out;
      }
      warm_failed_ = true;
      out.status = LpStatus::kIterationLimit;
      finish(out, model, start);
      return out;
    }
    needs_restoration_ = false;
  }
  if (needs_phase1_) {
    phase_ = "phase1";
    set_phase_costs(/*phase1=*/true);
    const LpStatus s = iterate_primal();
    if (s != LpStatus::kOptimal) {
      out.status = s == LpStatus::kUnbounded ? LpStatus::kInfeasible : s;
      finish(out, model, start);
      return out;
    }
    if (phase_objective() > kLpPhase1Tol) {
      out.status = LpStatus::kInfeasible;
      finish(out, model, start);
      return out;
    }
    // Pin every artificial to zero so it can never re-enter; basic
    // artificials at value 0 stay put (their rows are redundant).
    for (int j = n_structural_ + m_; j < num_vars(); ++j) up_[j] = 0.0;
  }
  phase_ = "primal";
  set_phase_costs(/*phase1=*/false);
  out.status = iterate_primal();
  finish(out, model, start);
  return out;
}

// ---- warm-start feasibility restoration -------------------------------------

/// Artificial-free composite phase 1 from an adopted warm basis: minimizes
/// the total bound violation of the basic variables with single-breakpoint
/// steps (an infeasible basic leaves the moment it reaches its violated
/// bound). Returns true when primal feasibility is reached; false hands
/// the solve back to the cold crash path. Restoration is how a basis from
/// a perturbed instance (shrunk capacities, shifted rhs) stays useful: a
/// few repair pivots instead of a from-scratch phase 1. A degenerate-pivot
/// streak switches pricing to Bland's rule (lowest eligible index) to break
/// the cycle instead of abandoning the warm basis outright.
bool SimplexCore::restore_feasibility() {
  const double ftol = 16.0 * kLpFeasibilityTol;
  std::vector<double> y(static_cast<std::size_t>(m_));
  std::vector<double> alpha(static_cast<std::size_t>(m_));
  const long long budget = 2000 + 2LL * m_;
  int degenerate_streak = 0;
  bool bland = false;
  for (long long pivots = 0; pivots < budget; ++pivots) {
    if (time_exceeded()) return false;  // run_primal reports kTimeLimit
    // Infeasibility costs from the current basic values.
    int violations = 0;
    for (int i = 0; i < m_; ++i) {
      const int j = basic_[static_cast<std::size_t>(i)];
      if (x_basic_[i] < lo_[j] - ftol) {
        y[i] = -1.0;
        ++violations;
      } else if (x_basic_[i] > up_[j] + ftol) {
        y[i] = +1.0;
        ++violations;
      } else {
        y[i] = 0.0;
      }
    }
    if (violations == 0) {
      for (int i = 0; i < m_; ++i) {
        const int j = basic_[static_cast<std::size_t>(i)];
        x_basic_[i] = std::clamp(x_basic_[i], lo_[j], up_[j]);
      }
      return true;
    }
    btran_full(y);
    // Price on the restoration reduced costs -y'A_j (nonbasic costs are 0).
    // Under Bland's rule the lowest-index improving column wins regardless
    // of magnitude, which cannot cycle.
    int entering = -1;
    int direction = +1;
    double best = kLpOptimalityTol;
    for (int j = 0; j < num_vars(); ++j) {
      if (state_[j] == VarState::kBasic) continue;
      if (fixed(j)) continue;
      double dj = 0.0;
      for (int k = cols_.col_begin(j); k < cols_.col_end(j); ++k) {
        dj -= y[static_cast<std::size_t>(cols_.entry_row(k))] * cols_.entry_value(k);
      }
      if (state_[j] == VarState::kAtLower && dj < -best) {
        best = bland ? best : -dj;
        entering = j;
        direction = +1;
      } else if (state_[j] == VarState::kAtUpper && dj > best) {
        best = bland ? best : dj;
        entering = j;
        direction = -1;
      }
      if (bland && entering >= 0) break;
    }
    if (entering < 0) return false;  // locally stuck: cold restart decides

    compute_column(entering, alpha);

    // First-breakpoint ratio test. Feasible basics must stay in bounds;
    // infeasible basics block only at the violated bound they are moving
    // toward (where they pivot out feasible).
    const double dir = static_cast<double>(direction);
    double limit = up_[static_cast<std::size_t>(entering)] -
                   lo_[static_cast<std::size_t>(entering)];
    int leaving_row = -1;
    bool leaving_to_upper = false;
    for (int i = 0; i < m_; ++i) {
      const double wi = dir * alpha[i];
      if (std::abs(wi) <= kLpPivotTol) continue;
      const int bj = basic_[static_cast<std::size_t>(i)];
      const double xi = x_basic_[i];
      double t = -1.0;
      bool to_upper = false;
      if (xi < lo_[bj] - ftol) {
        if (wi < 0.0) {  // moving up toward its violated lower bound
          t = (lo_[bj] - xi) / (-wi);
          to_upper = false;
        }
      } else if (xi > up_[bj] + ftol) {
        if (wi > 0.0) {  // moving down toward its violated upper bound
          t = (xi - up_[bj]) / wi;
          to_upper = true;
        }
      } else if (wi > 0.0) {
        // Feasible basics may sit a hair outside a bound (within ftol);
        // clamp so the step never goes negative.
        t = std::max((xi - lo_[bj]) / wi, 0.0);
        to_upper = false;
      } else if (up_[bj] < kInfinity) {
        t = std::max((up_[bj] - xi) / (-wi), 0.0);
        to_upper = true;
      }
      if (t >= 0.0 && t < limit) {
        limit = std::max(t, 0.0);
        leaving_row = i;
        leaving_to_upper = to_upper;
      }
    }
    if (!std::isfinite(limit)) return false;
    if (limit <= kLpDropTol) {
      // A degenerate streak used to abort restoration here (surfacing as a
      // spurious solve failure); switching to Bland's rule breaks the cycle
      // and lets the repair finish. The pivot budget remains the backstop.
      if (++degenerate_streak > kLpDegenerateStreakLimit) {
        if (!bland) ++stats_.bland_episodes;
        bland = true;
      }
    } else {
      degenerate_streak = 0;
      bland = false;
    }

    ++iterations_;
    for (int i = 0; i < m_; ++i) x_basic_[i] -= limit * dir * alpha[i];
    if (leaving_row < 0) {
      state_[static_cast<std::size_t>(entering)] =
          direction > 0 ? VarState::kAtUpper : VarState::kAtLower;
      x_nonbasic_value_[static_cast<std::size_t>(entering)] =
          direction > 0 ? up_[static_cast<std::size_t>(entering)]
                        : lo_[static_cast<std::size_t>(entering)];
      continue;
    }
    const double alpha_r = alpha[static_cast<std::size_t>(leaving_row)];
    if (std::abs(alpha_r) < kLpPivotTol) return false;
    const int leaving = basic_[static_cast<std::size_t>(leaving_row)];
    state_[static_cast<std::size_t>(leaving)] =
        leaving_to_upper ? VarState::kAtUpper : VarState::kAtLower;
    x_nonbasic_value_[static_cast<std::size_t>(leaving)] =
        leaving_to_upper ? up_[static_cast<std::size_t>(leaving)]
                         : lo_[static_cast<std::size_t>(leaving)];
    const double enter_value =
        (direction > 0 ? lo_[static_cast<std::size_t>(entering)]
                       : up_[static_cast<std::size_t>(entering)]) +
        dir * limit;
    basic_[static_cast<std::size_t>(leaving_row)] = entering;
    state_[static_cast<std::size_t>(entering)] = VarState::kBasic;
    x_basic_[static_cast<std::size_t>(leaving_row)] = enter_value;
    if (update_factors(leaving_row, alpha) ||
        std::abs(alpha_r) < kLpRefactorPivotTol) {
      refactorize();
    }
  }
  return false;
}

// ---- main loop --------------------------------------------------------------

LpStatus SimplexCore::iterate_primal() {
  std::vector<double> alpha(static_cast<std::size_t>(m_));
  std::vector<double> rho(static_cast<std::size_t>(m_));
  std::vector<double> accum(static_cast<std::size_t>(num_vars()), 0.0);
  std::vector<int> touched;
  touched.reserve(256);
  int stall = 0;
  int stale = 0;
  bool bland = false;
  bool freshly_priced = false;
  while (iterations_ < options_.max_iterations) {
    if (time_exceeded()) return LpStatus::kTimeLimit;
    // ---- pricing: Devex on maintained reduced costs -------------------
    // Wide models (the 50k-column pMCF masters) use sectioned PARTIAL
    // pricing: scan rotating windows of the column range and stop at the
    // first window holding an attractive candidate, so a pivot prices a
    // fraction of the columns instead of all of them. The cursor state is
    // deterministic, preserving run-to-run pivot sequences.
    if (bland) recompute_reduced_costs();
    int entering = -1;
    int direction = +1;
    double best_score = 0.0;
    const int nv = num_vars();
    const auto price = [&](int j) {
      const VarState st = state_[static_cast<std::size_t>(j)];
      if (st == VarState::kBasic) return;
      if (fixed(j)) return;
      const double dj = d_[static_cast<std::size_t>(j)];
      const double viol = st == VarState::kAtLower ? -dj : dj;
      if (viol <= kLpOptimalityTol) return;
      const double score = viol * viol / weight_[static_cast<std::size_t>(j)];
      if (score > best_score) {
        best_score = score;
        entering = j;
        direction = st == VarState::kAtLower ? +1 : -1;
      }
    };
    if (bland) {
      for (int j = 0; j < nv; ++j) {  // lowest index wins — guarantees termination
        const VarState st = state_[static_cast<std::size_t>(j)];
        if (st == VarState::kBasic || fixed(j)) continue;
        const double dj = d_[static_cast<std::size_t>(j)];
        const double viol = st == VarState::kAtLower ? -dj : dj;
        if (viol <= kLpOptimalityTol) continue;
        entering = j;
        direction = st == VarState::kAtLower ? +1 : -1;
        break;
      }
    } else if (options_.partial_pricing_threshold > 0 &&
               nv > options_.partial_pricing_threshold) {
      const int section = std::max(1024, nv / 16);
      int j = pricing_cursor_ < nv ? pricing_cursor_ : 0;
      for (int scanned = 0; scanned < nv && entering < 0;) {
        const int stop = std::min(scanned + section, nv);
        for (; scanned < stop; ++scanned, ++j) {
          if (j >= nv) j -= nv;
          price(j);
        }
      }
      if (entering >= 0) pricing_cursor_ = j >= nv ? j - nv : j;
    } else {
      for (int j = 0; j < nv; ++j) price(j);
    }
    if (entering < 0) {
      // Maintained reduced costs can drift; confirm optimality on a fresh
      // recompute before declaring victory.
      if (freshly_priced) return LpStatus::kOptimal;
      recompute_reduced_costs();
      freshly_priced = true;
      continue;
    }

    // ---- FTRAN + exact reduced cost of the candidate ------------------
    compute_column(entering, alpha);
    double d_exact = work_cost_[static_cast<std::size_t>(entering)];
    for (int i = 0; i < m_; ++i) {
      const double cb = work_cost_[static_cast<std::size_t>(basic_[i])];
      if (cb != 0.0) d_exact -= cb * alpha[i];
    }
    const double viol_exact = direction > 0 ? -d_exact : d_exact;
    if (viol_exact <= kLpOptimalityTol * 0.5) {
      // Stale candidate: correct it and re-price. Counts against the
      // iteration budget — under severe ill-conditioning the maintained
      // and exact reduced costs can keep disagreeing, and this loop must
      // terminate via kIterationLimit rather than hang. Refactorizing
      // removes the eta-file drift that causes the disagreement.
      ++iterations_;
      d_[static_cast<std::size_t>(entering)] = d_exact;
      if (++stale > 2) {
        refactorize();
        stale = 0;
      }
      continue;
    }
    stale = 0;
    freshly_priced = false;

    // ---- ratio test with bound flips ----------------------------------
    // Harris two-pass (the default): pass 1 finds the best ratio with every
    // bound relaxed by the feasibility tolerance; pass 2 picks the LARGEST
    // pivot among rows whose exact ratio fits under that relaxed bound —
    // trading a tolerance-bounded constraint violation for a numerically
    // safe pivot, which is what kills the tiny-pivot stalls degenerate MCF
    // bases produce. Under Bland's rule the exact single-pass test is kept
    // (its termination guarantee needs the true minimum ratio). Ties break
    // toward the larger pivot magnitude, then the lower basic-variable
    // index, so degenerate optima resolve to the same vertex run after run.
    const double dir = static_cast<double>(direction);
    double limit = up_[static_cast<std::size_t>(entering)] -
                   lo_[static_cast<std::size_t>(entering)];
    int leaving_row = -1;
    bool leaving_to_upper = false;
    if (options_.harris_ratio && !bland) {
      const double ftol = kLpFeasibilityTol;
      double theta_rel = limit;
      for (int i = 0; i < m_; ++i) {
        const double wi = dir * alpha[i];
        const int bj = basic_[i];
        if (wi > kLpPivotTol) {
          const double lob = lo_[static_cast<std::size_t>(bj)];
          const double t =
              (x_basic_[i] - lob + ftol * std::max(1.0, std::abs(lob))) / wi;
          theta_rel = std::min(theta_rel, t);
        } else if (wi < -kLpPivotTol &&
                   up_[static_cast<std::size_t>(bj)] < kInfinity) {
          const double upb = up_[static_cast<std::size_t>(bj)];
          const double t =
              (upb - x_basic_[i] + ftol * std::max(1.0, std::abs(upb))) / (-wi);
          theta_rel = std::min(theta_rel, t);
        }
      }
      if (theta_rel < limit) {
        ++stats_.harris_second_pass;
        double best_piv = 0.0;
        double chosen_t = 0.0;
        for (int i = 0; i < m_; ++i) {
          const double wi = dir * alpha[i];
          const int bj = basic_[i];
          double t;
          bool to_upper;
          if (wi > kLpPivotTol) {
            t = (x_basic_[i] - lo_[static_cast<std::size_t>(bj)]) / wi;
            to_upper = false;
          } else if (wi < -kLpPivotTol &&
                     up_[static_cast<std::size_t>(bj)] < kInfinity) {
            t = (up_[static_cast<std::size_t>(bj)] - x_basic_[i]) / (-wi);
            to_upper = true;
          } else {
            continue;
          }
          if (t > theta_rel) continue;
          const double piv = std::abs(wi);
          if (leaving_row >= 0 && piv < best_piv - kLpDropTol) continue;
          if (leaving_row >= 0 && piv <= best_piv + kLpDropTol &&
              basic_[i] >= basic_[static_cast<std::size_t>(leaving_row)]) {
            continue;
          }
          best_piv = std::max(piv, best_piv);
          leaving_row = i;
          leaving_to_upper = to_upper;
          chosen_t = t;
        }
        // Pass 2 is nonempty whenever pass 1 tightened the bound (the
        // argmin row's exact ratio is strictly below its relaxed one), so
        // this guard only defends against floating-point surprises.
        if (leaving_row >= 0) limit = std::max(chosen_t, 0.0);
      }
    } else {
      const auto prefer = [&](double t, double wi, int i) {
        if (t < limit - kLpDropTol) return true;
        if (t >= limit + kLpDropTol || leaving_row < 0) return false;
        const double w_cur =
            std::abs(dir * alpha[static_cast<std::size_t>(leaving_row)]);
        const double w_new = std::abs(wi);
        if (w_new > w_cur + kLpDropTol) return true;
        if (w_new < w_cur - kLpDropTol) return false;
        return basic_[static_cast<std::size_t>(i)] <
               basic_[static_cast<std::size_t>(leaving_row)];
      };
      for (int i = 0; i < m_; ++i) {
        const double wi = dir * alpha[i];
        const int bj = basic_[i];
        if (wi > kLpPivotTol) {
          const double t = (x_basic_[i] - lo_[static_cast<std::size_t>(bj)]) / wi;
          if (prefer(t, wi, i)) {
            limit = std::max(t, 0.0);
            leaving_row = i;
            leaving_to_upper = false;
          }
        } else if (wi < -kLpPivotTol && up_[static_cast<std::size_t>(bj)] < kInfinity) {
          const double t = (up_[static_cast<std::size_t>(bj)] - x_basic_[i]) / (-wi);
          if (prefer(t, wi, i)) {
            limit = std::max(t, 0.0);
            leaving_row = i;
            leaving_to_upper = true;
          }
        }
      }
    }
    if (!std::isfinite(limit)) return LpStatus::kUnbounded;

    ++iterations_;
    for (int i = 0; i < m_; ++i) x_basic_[i] -= limit * dir * alpha[i];

    if (leaving_row < 0) {
      // Pure bound flip: basis (and reduced costs) unchanged.
      state_[static_cast<std::size_t>(entering)] =
          direction > 0 ? VarState::kAtUpper : VarState::kAtLower;
      x_nonbasic_value_[static_cast<std::size_t>(entering)] =
          direction > 0 ? up_[static_cast<std::size_t>(entering)]
                        : lo_[static_cast<std::size_t>(entering)];
    } else {
      const double alpha_r = alpha[static_cast<std::size_t>(leaving_row)];
      // Pivot row rho' A through the CSR mirror: the only rows that touch
      // a column are those where rho is nonzero.
      compute_pivot_row(leaving_row, rho, accum, touched);
      // Incremental reduced-cost and Devex weight maintenance.
      const double theta_d = d_exact / alpha_r;
      const double w_q = weight_[static_cast<std::size_t>(entering)];
      bool weights_blown = false;
      for (const int j : touched) {
        const double arj = accum[static_cast<std::size_t>(j)];
        accum[static_cast<std::size_t>(j)] = 0.0;
        if (j == entering || state_[static_cast<std::size_t>(j)] == VarState::kBasic) {
          continue;
        }
        if (fixed(j)) continue;
        d_[static_cast<std::size_t>(j)] -= theta_d * arj;
        const double ratio = arj / alpha_r;
        const double candidate = ratio * ratio * w_q;
        if (candidate > weight_[static_cast<std::size_t>(j)]) {
          weight_[static_cast<std::size_t>(j)] = candidate;
          if (candidate > 1e12) weights_blown = true;
        }
      }
      const int leaving = basic_[static_cast<std::size_t>(leaving_row)];
      state_[static_cast<std::size_t>(leaving)] =
          leaving_to_upper ? VarState::kAtUpper : VarState::kAtLower;
      x_nonbasic_value_[static_cast<std::size_t>(leaving)] =
          leaving_to_upper ? up_[static_cast<std::size_t>(leaving)]
                           : lo_[static_cast<std::size_t>(leaving)];
      d_[static_cast<std::size_t>(leaving)] = -theta_d;
      weight_[static_cast<std::size_t>(leaving)] =
          std::max(w_q / (alpha_r * alpha_r), 1.0);
      const double enter_value =
          (direction > 0 ? lo_[static_cast<std::size_t>(entering)]
                         : up_[static_cast<std::size_t>(entering)]) +
          dir * limit;
      basic_[static_cast<std::size_t>(leaving_row)] = entering;
      state_[static_cast<std::size_t>(entering)] = VarState::kBasic;
      d_[static_cast<std::size_t>(entering)] = 0.0;
      x_basic_[static_cast<std::size_t>(leaving_row)] = enter_value;
      if (weights_blown) {
        weight_.assign(static_cast<std::size_t>(num_vars()), 1.0);
      }
      if (update_factors(leaving_row, alpha) ||
          std::abs(alpha_r) < kLpRefactorPivotTol) {
        refactorize();
      }
    }
    // Degeneracy bookkeeping: a positive step length strictly improves the
    // objective (the entering reduced cost is bounded away from zero).
    if (limit > 1e-10) {
      stall = 0;
      bland = false;
    } else if (++stall > kLpStallLimit) {
      if (!bland) ++stats_.bland_episodes;
      bland = true;
    }
  }
  return LpStatus::kIterationLimit;
}

void merge_failed_attempt(LpSolution& out, const SolverErrorContext& context) {
  // The failed core died before finish(), so neither its LpSolution stats
  // nor the global lp.* counters saw the work it did; fold in what the
  // error context preserved. -1 fields mean the throw site had no context.
  if (context.iterations > 0) {
    out.iterations += context.iterations;
    out.stats.iterations += context.iterations;
    if (std::string_view(context.phase) == "dual") {
      out.stats.dual_iterations += context.iterations;
    } else {
      out.stats.primal_iterations += context.iterations;
    }
    A2A_COUNTER("lp.iterations")
        .add(static_cast<std::uint64_t>(context.iterations));
  }
  if (context.refactorizations > 0) {
    out.stats.refactorizations += context.refactorizations;
    A2A_COUNTER("lp.refactorizations")
        .add(static_cast<std::uint64_t>(context.refactorizations));
  }
}

}  // namespace lp_detail

namespace {

/// Shrinks a time budget by the time already spent since `start`. An
/// exhausted budget clamps to a hair above zero (not to "unlimited"), so
/// the next core's first deadline probe fires before any pivot.
SimplexOptions with_remaining_budget(
    const SimplexOptions& options,
    std::chrono::steady_clock::time_point start) {
  if (options.time_limit_s <= 0.0) return options;
  SimplexOptions adjusted = options;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  adjusted.time_limit_s = std::max(options.time_limit_s - elapsed, 1e-9);
  return adjusted;
}

/// The warm-mode dispatch between the primal and dual drivers, on the model
/// as given (presolve and the numerical-collapse fallback live in
/// solve_lp()).
LpSolution solve_lp_direct(const LpModel& model, const SimplexOptions& options,
                           const LpBasis* warm_start, LpWarmMode warm_mode) {
  const auto start = std::chrono::steady_clock::now();
  if (warm_start != nullptr) {
    lp_detail::SimplexCore solver(model, options, warm_start);
    if (!solver.warm_started()) {
      // The basis was rejected (wrong shape or singular): the solver is
      // already sitting on the cold crash basis, so run it rather than
      // rebuilding an identical instance below.
      return solver.run_primal(model);
    }
    {
      // A primal-feasible basis skips phase 1 outright — nothing for the
      // dual to improve on, so kAuto only reaches for the dual when the
      // basic values moved out of bounds (the perturbed re-solve case).
      const bool want_dual =
          warm_mode == LpWarmMode::kDual ||
          (warm_mode == LpWarmMode::kAuto && solver.needs_restoration());
      if (want_dual && solver.dual_feasible()) {
        LpSolution out = solver.run_dual(model);
        if (out.status == LpStatus::kOptimal ||
            out.status == LpStatus::kUnbounded ||
            out.status == LpStatus::kTimeLimit) {
          return out;
        }
        // The dual stalled (numerical drift or a genuinely infeasible
        // instance it cannot certify); the cold primal is authoritative.
      } else {
        LpSolution out = solver.run_primal(model);
        // An expired budget is terminal: the cold fallback below could not
        // finish either, and the partial basis is the caller's answer.
        if (out.status == LpStatus::kTimeLimit) return out;
        if (!solver.warm_failed()) return out;
        // The warm basis resisted repair; a cold solve is the reliable path.
      }
    }
  }
  // The cold core draws from whatever the warm attempt left of the budget —
  // the deadline is absolute across the dispatch, not per core.
  lp_detail::SimplexCore solver(model, with_remaining_budget(options, start),
                                nullptr);
  return solver.run_primal(model);
}

/// Presolve-reduced models recurse through solve_lp(); the depth guard keeps
/// `lp.solves` counting user-visible solves, not engine invocations.
thread_local int g_solve_depth = 0;

void record_presolve_stats(const PresolveStats& ps, LpStats* stats) {
  stats->presolve_fixed_variables += ps.fixed_variables;
  stats->presolve_empty_columns += ps.empty_columns;
  stats->presolve_empty_rows += ps.empty_rows;
  stats->presolve_singleton_rows += ps.singleton_rows;
  stats->presolve_tightened_bounds += ps.tightened_bounds;
  A2A_COUNTER("lp.presolve.fixed_variables")
      .add(static_cast<std::uint64_t>(ps.fixed_variables));
  A2A_COUNTER("lp.presolve.empty_columns")
      .add(static_cast<std::uint64_t>(ps.empty_columns));
  A2A_COUNTER("lp.presolve.empty_rows")
      .add(static_cast<std::uint64_t>(ps.empty_rows));
  A2A_COUNTER("lp.presolve.singleton_rows")
      .add(static_cast<std::uint64_t>(ps.singleton_rows));
  A2A_COUNTER("lp.presolve.tightened_bounds")
      .add(static_cast<std::uint64_t>(ps.tightened_bounds));
}

}  // namespace

LpSolution solve_lp(const LpModel& model, const SimplexOptions& options,
                    const LpBasis* warm_start, LpWarmMode warm_mode) {
  A2A_REQUIRE(model.num_rows() > 0, "LP with no constraints");
  A2A_REQUIRE(model.num_variables() > 0, "LP with no variables");
  const auto solve_start = std::chrono::steady_clock::now();
  struct DepthGuard {
    DepthGuard() { ++g_solve_depth; }
    ~DepthGuard() { --g_solve_depth; }
  } depth_guard;
  if (g_solve_depth == 1) A2A_COUNTER("lp.solves").inc();
  if (options.presolve) {
    const auto start = std::chrono::steady_clock::now();
    Presolve pre;
    const Presolve::Result res = pre.run(model);
    if (res != Presolve::Result::kUnchanged) {
      LpSolution out;
      switch (res) {
        case Presolve::Result::kInfeasible:
          out.status = LpStatus::kInfeasible;
          out.values.assign(static_cast<std::size_t>(model.num_variables()), 0.0);
          break;
        case Presolve::Result::kUnbounded:
          out.status = LpStatus::kUnbounded;
          out.values.assign(static_cast<std::size_t>(model.num_variables()), 0.0);
          break;
        case Presolve::Result::kSolved: {
          // Everything reduced away; the optimum is the postsolve of an
          // empty solution (all columns at their parked bounds).
          LpSolution trivially_optimal;
          trivially_optimal.status = LpStatus::kOptimal;
          pre.postsolve(model, trivially_optimal, &out);
          break;
        }
        case Presolve::Result::kReduced: {
          // Solve the reduced model (recursively, with presolve off) and
          // lift values + basis back to the full space. A warm basis is
          // projected into the reduced space when it survives the mapping;
          // the exported basis always covers the full model, so warm starts
          // thread through presolved re-solves exactly as before.
          // Presolve time comes out of the same wall-clock allowance.
          SimplexOptions inner = with_remaining_budget(options, solve_start);
          inner.presolve = false;
          LpBasis mapped;
          const LpBasis* seed = warm_start != nullptr && !warm_start->empty() &&
                                        pre.map_warm_basis(*warm_start, &mapped)
                                    ? &mapped
                                    : nullptr;
          const LpSolution rsol = solve_lp(pre.reduced(), inner, seed, warm_mode);
          pre.postsolve(model, rsol, &out);
          break;
        }
        case Presolve::Result::kUnchanged:
          break;
      }
      record_presolve_stats(pre.stats(), &out.stats);
      out.solve_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      return out;
    }
  }
  try {
    return solve_lp_direct(model, options, warm_start, warm_mode);
  } catch (const SolverError& e) {
    // Numerical collapse: drift-poisoned pivots can steer the basis into
    // actual singularity (the refactorization throws). One cold retry on
    // the conservative configuration — short-leash eta file, exact ratio
    // tests — is the production-grade response; if even that cannot factor,
    // the model itself is pathological and the error propagates. The retry
    // draws from the remaining wall-clock budget, never a fresh one.
    SimplexOptions safe = with_remaining_budget(options, solve_start);
    safe.basis_update = LpBasisUpdate::kEta;
    safe.eta_limit = std::min(options.eta_limit, 64);
    safe.harris_ratio = false;
    A2A_COUNTER("lp.cold_retries").inc();
    LpSolution out = solve_lp_direct(model, safe, nullptr, warm_mode);
    out.stats.cold_retries = 1;
    lp_detail::merge_failed_attempt(out, e.context());
    return out;
  }
}

LpSolution solve_lp_warm(const LpModel& model, const SimplexOptions& options,
                         LpBasis* warm, LpWarmMode warm_mode) {
  const LpBasis* seed = warm != nullptr && !warm->empty() ? warm : nullptr;
  LpSolution sol = solve_lp(model, options, seed, warm_mode);
  if (warm != nullptr && sol.optimal()) *warm = sol.basis;
  return sol;
}

std::string to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration-limit";
    case LpStatus::kTimeLimit: return "time-limit";
  }
  return "unknown";
}

}  // namespace a2a
