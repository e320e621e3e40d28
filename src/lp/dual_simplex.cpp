// Bounded-variable dual simplex — the engine solve_lp() runs on any
// dual-feasible starting basis.
//
// Two kinds of solve supply one. A basis that was optimal stays DUAL
// feasible when only the rhs or the variable bounds move (reduced costs do
// not depend on either), which is exactly what the perturbed re-solve paths
// do: the Fig. 9 disabled-link sweeps collapse capacities, schedule-cache
// revalidation shifts demands, the decomposed master re-solves under new cut
// rhs, and the child LPs share a shape with per-source rhs; there the
// iteration count scales with the size of the perturbation, not the size of
// the LP. And an LP minimizing nonnegative costs is dual feasible at the
// all-slack basis (slack_basis()), so it can be solved cold here: the exact
// tsMCF LP does so whenever it has no warm basis, skipping the phase 1 that
// the primal would spend driving artificials out of its equality rows. The
// dual simplex iterates directly on either basis — each pivot exchanges the
// most-infeasible basic variable for a nonbasic one chosen by the dual ratio
// test — so no phase-1/restoration work is ever done.
//
// Implementation notes:
//   * leaving row: largest squared bound violation scaled by dual
//     Devex-style row weights (the dual analog of Devex pricing), computed
//     from the maintained basic values;
//   * dual ratio test: over the BTRAN'd pivot row, restricted to nonbasic
//     columns whose reduced-cost sign stays feasible; boxed columns whose
//     ratio is passed are BOUND-FLIPPED instead of entering (the
//     bound-flipping ratio test), absorbing part of the infeasibility and
//     lengthening the dual step;
//   * anti-cycling: a degenerate-step streak switches to Bland-style lowest
//     index selection, mirroring the primal loop;
//   * the loop never declares kInfeasible itself: when no entering column
//     exists (dual unbounded = primal infeasible) or numerical drift stalls
//     progress, it returns kIterationLimit and solve_lp() re-solves cold
//     with the primal, which is the authoritative oracle. kOptimal results
//     carry the exported basis exactly like primal solves.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "lp/simplex_core.hpp"

namespace a2a::lp_detail {

LpSolution SimplexCore::run_dual(const LpModel& model) {
  const auto start = std::chrono::steady_clock::now();
  LpSolution out;
  out.warm_started = warm_started_;
  // build() already left work_cost_ at the phase-2 costs and d_ freshly
  // recomputed for the warm path (dual_feasible() read them), so unlike
  // run_primal there is no phase switch to pay for here.
  // Anti-degeneracy cost perturbation. Max-concurrent-flow optima sit on
  // huge alternate-optimum faces, so a warm basis carries hundreds of
  // exactly-zero reduced costs; every dual ratio would be zero, every dual
  // step degenerate, and the loop would shuffle infeasibility around
  // without ever making provable progress. Nudging each nonbasic cost in
  // its dual-FEASIBLE direction (up at lower bound, down at upper) by a
  // deterministic per-column amount makes ratios strictly positive, so
  // every pivot strictly improves the perturbed dual objective and the
  // loop terminates. The perturbation is removed before returning and the
  // few resulting dual infeasibilities are polished away by the primal on
  // the (by then primal-feasible) basis.
  for (int j = 0; j < num_vars(); ++j) {
    if (state_[j] == VarState::kBasic || fixed(j)) continue;
    // xorshift-style hash of j -> [0.5, 1): deterministic, uncorrelated
    // with the column order the ratio test scans.
    std::uint32_t h = static_cast<std::uint32_t>(j) * 2654435761u;
    h ^= h >> 16;
    const double u = 0.5 + 0.5 * (h & 0xffff) / 65536.0;
    const double eps = kLpDualPerturb * (1.0 + std::abs(work_cost_[j])) * u;
    const double signed_eps = state_[j] == VarState::kAtLower ? eps : -eps;
    work_cost_[j] += signed_eps;
    d_[j] += signed_eps;
  }
  stats_.dual_used = true;
  phase_ = "dual";
  const long long before_dual = iterations_;
  out.status = iterate_dual();
  stats_.dual_iterations += iterations_ - before_dual;
  if (out.status == LpStatus::kOptimal) {
    // Drop the perturbation and let the primal clean up the handful of
    // reduced costs whose sign it was carrying; the basis is primal
    // feasible now, so this is plain phase-2 polishing.
    phase_ = "primal";
    set_phase_costs(/*phase1=*/false);
    out.status = iterate_primal();
  }
  finish(out, model, start);
  return out;
}

LpStatus SimplexCore::iterate_dual() {
  std::vector<double> rho(static_cast<std::size_t>(m_));
  std::vector<double> alpha(static_cast<std::size_t>(m_));
  std::vector<double> flip_resid(static_cast<std::size_t>(m_));
  std::vector<double> accum(static_cast<std::size_t>(num_vars()), 0.0);
  std::vector<int> touched;
  touched.reserve(256);
  struct Candidate {
    int j;
    double ratio;
    double row_value;  ///< a_rj (sign included, pre-normalization).
  };
  std::vector<Candidate> candidates;
  std::vector<int> flips;
  dual_weight_.assign(static_cast<std::size_t>(m_), 1.0);
  const double ftol = kLpFeasibilityTol;
  int degenerate_streak = 0;
  bool bland = false;
  // x_basic_ comes straight from the warm import's fresh factorization.
  bool fresh = true;

  const auto clear_accum = [&] {
    for (const int j : touched) accum[static_cast<std::size_t>(j)] = 0.0;
    touched.clear();
  };

  while (iterations_ < options_.max_iterations) {
    if (time_exceeded()) return LpStatus::kTimeLimit;
    // ---- leaving row: largest scaled primal infeasibility ---------------
    int leaving_row = -1;
    double sigma = 0.0;     // +1: x_r above upper, -1: x_r below lower.
    double violation = 0.0; // |distance past the violated bound|.
    double best_score = 0.0;
    for (int i = 0; i < m_; ++i) {
      const int j = basic_[static_cast<std::size_t>(i)];
      const double below = lo_[j] - x_basic_[i];
      const double above = x_basic_[i] - up_[j];
      double v;
      double s;
      if (below > ftol * std::max(1.0, std::abs(lo_[j]))) {
        v = below;
        s = -1.0;
      } else if (above > ftol * std::max(1.0, std::abs(up_[j]))) {
        v = above;
        s = +1.0;
      } else {
        continue;
      }
      if (bland) {  // lowest basis position wins
        leaving_row = i;
        sigma = s;
        violation = v;
        break;
      }
      const double score = v * v / dual_weight_[i];
      if (score > best_score) {
        best_score = score;
        leaving_row = i;
        sigma = s;
        violation = v;
      }
    }
    if (leaving_row < 0) {
      // Primal feasible + dual feasible = optimal; confirm on freshly
      // recomputed basic values before declaring victory (the maintained
      // ones drift with the eta file).
      if (fresh) {
        for (int i = 0; i < m_; ++i) {
          const int j = basic_[static_cast<std::size_t>(i)];
          x_basic_[i] = std::clamp(x_basic_[i], lo_[j], up_[j]);
        }
        return LpStatus::kOptimal;
      }
      refactorize();
      fresh = true;
      continue;
    }
    const int leaving = basic_[static_cast<std::size_t>(leaving_row)];

    // ---- pivot row rho' A through the CSR mirror ------------------------
    clear_accum();
    compute_pivot_row(leaving_row, rho, accum, touched);

    // ---- dual ratio test ------------------------------------------------
    // With a~_j = sigma * a_rj, eligible columns keep their reduced-cost
    // sign as the dual step grows: at-lower needs a~_j > 0 (ratio d_j/a~_j),
    // at-upper a~_j < 0 (ratio d_j/a~_j, both signs negative). The smallest
    // ratio bounds the step.
    candidates.clear();
    for (const int j : touched) {
      if (state_[static_cast<std::size_t>(j)] == VarState::kBasic) continue;
      if (fixed(j)) continue;
      const double arj = accum[static_cast<std::size_t>(j)];
      const double at = sigma * arj;
      double ratio;
      if (state_[static_cast<std::size_t>(j)] == VarState::kAtLower &&
          at > kLpPivotTol) {
        ratio = std::max(d_[static_cast<std::size_t>(j)], 0.0) / at;
      } else if (state_[static_cast<std::size_t>(j)] == VarState::kAtUpper &&
                 at < -kLpPivotTol) {
        ratio = std::max(-d_[static_cast<std::size_t>(j)], 0.0) / (-at);
      } else {
        continue;
      }
      candidates.push_back({j, ratio, arj});
    }
    if (candidates.empty()) {
      // Dual unbounded (primal infeasible) — or drift faking it. Verify on
      // a fresh factorization once, then hand the instance back to the
      // primal fallback rather than certify infeasibility from here.
      clear_accum();
      if (!fresh) {
        refactorize();
        fresh = true;
        continue;
      }
      return LpStatus::kIterationLimit;
    }
    if (bland) {
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.ratio != b.ratio ? a.ratio < b.ratio : a.j < b.j;
                });
    } else {
      // Ratio ties (rampant on dual-degenerate MCF bases, where most
      // reduced costs are exactly zero) break toward the larger pivot
      // magnitude: numerically safest and absorbs the most infeasibility.
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& a, const Candidate& b) {
                  if (a.ratio != b.ratio) return a.ratio < b.ratio;
                  const double am = std::abs(a.row_value);
                  const double bm = std::abs(b.row_value);
                  return am != bm ? am > bm : a.j < b.j;
                });
    }

    // ---- bound-flipping walk over the sorted ratios ---------------------
    // A boxed candidate whose whole range cannot absorb the remaining
    // infeasibility is passed over (its absorption credited) and the walk
    // continues; the first candidate that can close the gap — or any
    // unboxed one — enters the basis. Passed candidates whose ratio is
    // STRICTLY below the entering ratio really are crossed by the dual
    // step and must flip to their other bound (their reduced-cost sign
    // requirement swaps); ratio ties with the entering column are NOT
    // flipped — at a degenerate (zero) dual step a flip buys nothing and
    // thrashes back the next pivot.
    flips.clear();
    int entering = -1;
    double entering_ratio = 0.0;
    double remaining = violation;
    std::size_t passed = 0;
    for (const Candidate& c : candidates) {
      const double range = up_[static_cast<std::size_t>(c.j)] -
                           lo_[static_cast<std::size_t>(c.j)];
      const double absorb = std::abs(c.row_value) * range;
      if (!bland && range < kInfinity && remaining - absorb > ftol) {
        ++passed;
        remaining -= absorb;
        continue;
      }
      entering = c.j;
      entering_ratio = c.ratio;
      break;
    }
    if (options_.harris_ratio && !bland && entering >= 0) {
      // Harris two-pass refinement over the unflipped tail: pass 1 relaxes
      // each candidate's ratio by the dual feasibility tolerance scaled by
      // its pivot; pass 2 enters the LARGEST pivot whose exact ratio fits
      // under that relaxed bound. Candidates crossed within the window keep
      // a tolerance-bounded dual infeasibility (clamped to zero in later
      // ratio tests and polished by the primal at the end) — the standard
      // Harris trade of a whisker of dual feasibility for pivot stability.
      ++stats_.harris_second_pass;
      const double dtol = kLpOptimalityTol;
      double theta_rel = kInfinity;
      for (std::size_t c = passed; c < candidates.size(); ++c) {
        theta_rel = std::min(
            theta_rel,
            candidates[c].ratio + dtol / std::abs(candidates[c].row_value));
      }
      double best_piv = std::abs(candidates[passed].row_value);
      for (std::size_t c = passed + 1; c < candidates.size(); ++c) {
        if (candidates[c].ratio > theta_rel) continue;
        const double piv = std::abs(candidates[c].row_value);
        if (piv <= best_piv) continue;
        // Keep the absorption walk's vetting: a boxed candidate whose whole
        // range cannot close the remaining infeasibility would re-create
        // the violation it is meant to fix — only unboxed columns or ones
        // wide enough to absorb `remaining` may displace the walk's choice.
        const double range = up_[static_cast<std::size_t>(candidates[c].j)] -
                             lo_[static_cast<std::size_t>(candidates[c].j)];
        if (range < kInfinity && piv * range < remaining - ftol) continue;
        best_piv = piv;
        entering = candidates[c].j;
        entering_ratio = candidates[c].ratio;
      }
    }
    if (entering < 0) {
      // Even flipping every candidate cannot restore the row: primal
      // infeasible territory — let the primal fallback decide.
      clear_accum();
      return LpStatus::kIterationLimit;
    }
    for (std::size_t c = 0; c < passed; ++c) {
      if (candidates[c].ratio < entering_ratio - kLpDropTol) {
        flips.push_back(candidates[c].j);
      }
    }
    const double a_rq = accum[static_cast<std::size_t>(entering)];
    const double theta_d = d_[static_cast<std::size_t>(entering)] / a_rq;

    // ---- apply the bound flips -----------------------------------------
    if (!flips.empty()) {
      std::fill(flip_resid.begin(), flip_resid.end(), 0.0);
      for (const int j : flips) {
        const bool to_upper = state_[static_cast<std::size_t>(j)] == VarState::kAtLower;
        const double from = x_nonbasic_value_[static_cast<std::size_t>(j)];
        const double to = to_upper ? up_[static_cast<std::size_t>(j)]
                                   : lo_[static_cast<std::size_t>(j)];
        state_[static_cast<std::size_t>(j)] =
            to_upper ? VarState::kAtUpper : VarState::kAtLower;
        x_nonbasic_value_[static_cast<std::size_t>(j)] = to;
        const double delta = to - from;
        if (delta == 0.0) continue;
        for (int k = cols_.col_begin(j); k < cols_.col_end(j); ++k) {
          flip_resid[static_cast<std::size_t>(cols_.entry_row(k))] +=
              cols_.entry_value(k) * delta;
        }
      }
      ftran_full(flip_resid);
      for (int i = 0; i < m_; ++i) x_basic_[i] -= flip_resid[i];
    }

    // ---- FTRAN the entering column and pivot ----------------------------
    compute_column(entering, alpha);
    const double alpha_r = alpha[static_cast<std::size_t>(leaving_row)];
    if (std::abs(alpha_r) < kLpPivotTol ||
        std::abs(alpha_r - a_rq) >
            kLpOptimalityTol * std::max(1.0, std::abs(a_rq)) + kLpPivotTol) {
      // Row and column disagree on the pivot element: the eta file has
      // drifted. Refactorize and retry the whole iteration (flips already
      // applied remain valid — they only moved nonbasic values).
      clear_accum();
      if (!fresh) {
        refactorize();
        fresh = true;
        continue;
      }
      return LpStatus::kIterationLimit;  // fresh and still inconsistent
    }

    const double target = sigma > 0.0 ? up_[static_cast<std::size_t>(leaving)]
                                      : lo_[static_cast<std::size_t>(leaving)];
    const double theta_p = (x_basic_[static_cast<std::size_t>(leaving_row)] - target) / alpha_r;
    for (int i = 0; i < m_; ++i) x_basic_[i] -= theta_p * alpha[i];

    // ---- maintained reduced costs over the pivot row --------------------
    for (const int j : touched) {
      const double arj = accum[static_cast<std::size_t>(j)];
      accum[static_cast<std::size_t>(j)] = 0.0;
      if (j == entering || state_[static_cast<std::size_t>(j)] == VarState::kBasic) {
        continue;
      }
      if (fixed(j)) continue;
      d_[static_cast<std::size_t>(j)] -= theta_d * arj;
    }
    touched.clear();
    d_[static_cast<std::size_t>(leaving)] = -theta_d;
    d_[static_cast<std::size_t>(entering)] = 0.0;

    // ---- dual Devex row weights (reference framework = all rows) --------
    const double w_r = dual_weight_[static_cast<std::size_t>(leaving_row)];
    bool weights_blown = false;
    for (int i = 0; i < m_; ++i) {
      if (i == leaving_row) continue;
      const double ai = alpha[i];
      if (std::abs(ai) < kLpDropTol) continue;
      const double ratio = ai / alpha_r;
      const double candidate = ratio * ratio * w_r;
      if (candidate > dual_weight_[i]) {
        dual_weight_[i] = candidate;
        if (candidate > 1e12) weights_blown = true;
      }
    }
    dual_weight_[static_cast<std::size_t>(leaving_row)] =
        std::max(w_r / (alpha_r * alpha_r), 1.0);
    if (weights_blown) {
      dual_weight_.assign(static_cast<std::size_t>(m_), 1.0);
    }

    // ---- basis exchange -------------------------------------------------
    state_[static_cast<std::size_t>(leaving)] =
        sigma > 0.0 ? VarState::kAtUpper : VarState::kAtLower;
    x_nonbasic_value_[static_cast<std::size_t>(leaving)] = target;
    basic_[static_cast<std::size_t>(leaving_row)] = entering;
    state_[static_cast<std::size_t>(entering)] = VarState::kBasic;
    x_basic_[static_cast<std::size_t>(leaving_row)] =
        x_nonbasic_value_[static_cast<std::size_t>(entering)] + theta_p;

    ++iterations_;
    fresh = false;
    if (update_factors(leaving_row, alpha) ||
        std::abs(alpha_r) < kLpRefactorPivotTol) {
      refactorize();
      fresh = true;
    }

    // ---- anti-cycling ---------------------------------------------------
    // The dual objective strictly improves iff the dual step is nonzero.
    if (std::abs(theta_d) > kLpDropTol) {
      degenerate_streak = 0;
      bland = false;
    } else if (++degenerate_streak > kLpDegenerateStreakLimit) {
      if (!bland) ++stats_.bland_episodes;
      bland = true;
    }
  }
  return LpStatus::kIterationLimit;
}

}  // namespace a2a::lp_detail
