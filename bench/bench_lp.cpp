// LP-solver benchmark: sparse revised simplex (solve_lp) vs the dense
// reference (solve_lp_dense) on the Fig. 7 algorithm-runtime LPs — with the
// sparse solver measured in three configurations: the PR 2/3 "legacy" setup
// (product-form eta file, no presolve, exact ratio tests), Forrest–Tomlin
// factor updates alone, and the full default (FT + presolve + Harris +
// partial pricing) — plus the warm-start Fig. 9-style disabled-link sweep
// comparing cold starts, primal warm starts (feasibility restoration), and
// DUAL warm starts (the dual simplex iterating directly on the
// still-dual-feasible basis).
//
// Usage:
//   bench_lp [--smoke] [--json PATH]
//
// --smoke runs a reduced set and exits nonzero when (a) any two solver legs
// disagree on an objective beyond 1e-6 (dense vs eta vs FT vs FT+presolve —
// numeric drift in the new legs fails CI, not just the dual one), (b) the
// sparse solver fails to beat the dense one on the largest smoke LP, (c) the
// FT+presolve default loses to the legacy eta configuration on that LP,
// (d) the warm-started sweep needs more simplex iterations than cold
// starts, or (e) the dual-warm sweep changes an objective or needs more
// iterations than cold starts — so solver regressions fail CI loudly
// instead of rotting silently. --json writes the measurements as a
// BENCH_lp.json trajectory point.
#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cctype>
#include <cstring>
#include <fstream>
#include <sstream>

#include "graph/algorithms.hpp"
#include "mcf/path_mcf.hpp"
#include "mcf/timestepped.hpp"

using namespace a2a;
using namespace a2a::bench;

namespace {

/// The PR 2/PR 3 solver configuration, kept as the "before" side of the
/// Forrest–Tomlin / presolve / Harris upgrade.
SimplexOptions legacy_options() {
  SimplexOptions o;
  o.basis_update = LpBasisUpdate::kEta;
  o.presolve = false;
  o.harris_ratio = false;
  o.partial_pricing_threshold = 0;
  return o;
}

/// Forrest–Tomlin updates isolated: presolve and the ratio-test/pricing
/// changes disabled, so the ft column measures the factor-update win alone.
SimplexOptions ft_only_options() {
  SimplexOptions o = legacy_options();
  o.basis_update = LpBasisUpdate::kForrestTomlin;
  return o;
}

struct Comparison {
  std::string name;
  double dense_seconds = 0.0;
  double legacy_seconds = 0.0;  ///< eta file, no presolve/Harris.
  double ft_seconds = 0.0;      ///< Forrest–Tomlin alone.
  double sparse_seconds = 0.0;  ///< full default: FT + presolve + Harris.
  double dense_objective = 0.0;
  double legacy_objective = 0.0;
  double ft_objective = 0.0;
  double sparse_objective = 0.0;
  long long dense_iterations = 0;
  long long legacy_iterations = 0;
  long long ft_iterations = 0;
  long long sparse_iterations = 0;

  [[nodiscard]] double speedup() const {
    return sparse_seconds > 0.0 ? dense_seconds / sparse_seconds : 0.0;
  }
  /// The tentpole number: FT + presolve + Harris vs the PR 3 configuration.
  [[nodiscard]] double ft_presolve_speedup() const {
    return sparse_seconds > 0.0 ? legacy_seconds / sparse_seconds : 0.0;
  }
  [[nodiscard]] bool objectives_match() const {
    const double tol = 1e-6 * std::max(1.0, std::abs(dense_objective));
    return std::abs(dense_objective - legacy_objective) <= tol &&
           std::abs(dense_objective - ft_objective) <= tol &&
           std::abs(dense_objective - sparse_objective) <= tol;
  }
};

Comparison compare(const std::string& name, const LpModel& model) {
  Comparison c;
  c.name = name;
  const LpSolution dense = solve_lp_dense(model);
  c.dense_seconds = dense.solve_seconds;
  c.dense_objective = dense.objective;
  c.dense_iterations = dense.iterations;
  const LpSolution legacy = solve_lp(model, legacy_options());
  c.legacy_seconds = legacy.solve_seconds;
  c.legacy_objective = legacy.objective;
  c.legacy_iterations = legacy.iterations;
  const LpSolution ft = solve_lp(model, ft_only_options());
  c.ft_seconds = ft.solve_seconds;
  c.ft_objective = ft.objective;
  c.ft_iterations = ft.iterations;
  const LpSolution sparse = solve_lp(model);
  c.sparse_seconds = sparse.solve_seconds;
  c.sparse_objective = sparse.objective;
  c.sparse_iterations = sparse.iterations;
  return c;
}

struct WarmSweep {
  int scenarios = 0;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;   ///< primal warm starts (restoration).
  double dual_seconds = 0.0;   ///< dual warm starts.
  long long cold_iterations = 0;
  long long warm_iterations = 0;
  long long dual_iterations = 0;
  bool objectives_match = true;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  std::cout << "=== bench_lp: sparse revised simplex vs dense reference ===\n\n";
  std::vector<Comparison> comparisons;

  // ---- Fig. 7 runtime LPs: full link MCF on GenKautz(d=4) -----------------
  for (const int n : smoke ? std::vector<int>{8, 10} : std::vector<int>{8, 10, 12}) {
    const DiGraph g = make_generalized_kautz(n, 4);
    const LpModel model = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
    comparisons.push_back(
        compare("link_mcf_genkautz" + std::to_string(n), model));
    std::cout << "  " << comparisons.back().name << ": "
              << comparisons.back().speedup() << "x\n";
  }

  // ---- tsMCF LPs (the exact small-fabric branch of Fig. 1) ----------------
  for (const int n : smoke ? std::vector<int>{8} : std::vector<int>{8, 10}) {
    const DiGraph g = n == 8 ? make_hypercube(3) : make_generalized_kautz(n, 4);
    const int steps = diameter(g) + 1;
    const LpModel model =
        build_tsmcf_model(g, steps, TerminalPairs(all_nodes(g)));
    comparisons.push_back(compare("tsmcf_n" + std::to_string(n), model));
    std::cout << "  " << comparisons.back().name << ": "
              << comparisons.back().speedup() << "x\n";
  }

  // ---- Fig. 9-style disabled-link sweep with warm starts ------------------
  WarmSweep sweep;
  {
    const int n = smoke ? 12 : 27;
    const DiGraph base = make_generalized_kautz(n, 4);
    const auto nodes = all_nodes(base);
    const PathSet candidates = build_disjoint_path_set(base, nodes);
    Rng rng(4242);
    std::vector<DiGraph> scenarios{base};
    for (int k = 1; k <= (smoke ? 3 : 8); ++k) {
      // "Disable" k random links by collapsing their capacity: the LP keeps
      // its exact shape, which is what makes warm starts across the sweep
      // valid (the Fig. 9 bench itself removes arcs and rebuilds).
      DiGraph g = base;
      for (int hit = 0; hit < k; ++hit) {
        const EdgeId e = static_cast<EdgeId>(
            rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
        g.set_capacity(e, 1e-6);
      }
      scenarios.push_back(std::move(g));
    }
    sweep.scenarios = static_cast<int>(scenarios.size());
    LpBasis warm_primal;
    LpBasis warm_dual;
    for (const DiGraph& g : scenarios) {
      const auto cold = solve_path_mcf_exact(g, candidates);
      const auto warm_sol = solve_path_mcf_exact(g, candidates, {},
                                                 &warm_primal,
                                                 LpWarmMode::kPrimal);
      const auto dual_sol = solve_path_mcf_exact(g, candidates, {},
                                                 &warm_dual,
                                                 LpWarmMode::kDual);
      sweep.cold_seconds += cold.solve_seconds;
      sweep.warm_seconds += warm_sol.solve_seconds;
      sweep.dual_seconds += dual_sol.solve_seconds;
      sweep.cold_iterations += cold.lp_iterations;
      sweep.warm_iterations += warm_sol.lp_iterations;
      sweep.dual_iterations += dual_sol.lp_iterations;
      if (std::abs(cold.concurrent_flow - warm_sol.concurrent_flow) > 1e-6 ||
          std::abs(cold.concurrent_flow - dual_sol.concurrent_flow) > 1e-6) {
        sweep.objectives_match = false;
      }
    }
    std::cout << "  fig9_warm_sweep(" << sweep.scenarios << " scenarios): cold "
              << sweep.cold_iterations << " it -> primal-warm "
              << sweep.warm_iterations << " it -> dual-warm "
              << sweep.dual_iterations << " it\n\n";
  }

  // ---- report -------------------------------------------------------------
  Table table({"LP", "dense_s", "eta_s", "ft_s", "ft+pre_s", "vs_dense",
               "vs_eta", "it", "obj_match"});
  for (const auto& c : comparisons) {
    table.row()
        .cell(c.name)
        .cell(c.dense_seconds, 4)
        .cell(c.legacy_seconds, 4)
        .cell(c.ft_seconds, 4)
        .cell(c.sparse_seconds, 4)
        .cell(c.speedup(), 2)
        .cell(c.ft_presolve_speedup(), 2)
        .cell(c.sparse_iterations)
        .cell(c.objectives_match() ? "yes" : "NO");
  }
  table.print(std::cout);
  std::cout << "\nFig. 9-style warm sweep (" << sweep.scenarios
            << " scenarios): cold " << sweep.cold_seconds << "s/"
            << sweep.cold_iterations << " it, primal-warm "
            << sweep.warm_seconds << "s/" << sweep.warm_iterations
            << " it, dual-warm " << sweep.dual_seconds << "s/"
            << sweep.dual_iterations << " it, objectives "
            << (sweep.objectives_match ? "match" : "MISMATCH") << "\n";

  if (!json_path.empty()) {
    std::ostringstream js;
    js << "{\n  \"benchmark\": \"bench_lp\",\n  \"mode\": \""
       << (smoke ? "smoke" : "full") << "\",\n  \"comparisons\": [\n";
    // (object is appended into the trajectory array below)
    for (std::size_t i = 0; i < comparisons.size(); ++i) {
      const auto& c = comparisons[i];
      js << "    {\"lp\": \"" << c.name << "\", \"dense_seconds\": "
         << c.dense_seconds << ", \"eta_seconds\": " << c.legacy_seconds
         << ", \"ft_seconds\": " << c.ft_seconds
         << ", \"sparse_seconds\": " << c.sparse_seconds
         << ", \"speedup\": " << c.speedup()
         << ", \"ft_presolve_speedup\": " << c.ft_presolve_speedup()
         << ", \"dense_iterations\": " << c.dense_iterations
         << ", \"eta_iterations\": " << c.legacy_iterations
         << ", \"ft_iterations\": " << c.ft_iterations
         << ", \"sparse_iterations\": " << c.sparse_iterations
         << ", \"objective\": " << c.sparse_objective << "}"
         << (i + 1 < comparisons.size() ? ",\n" : "\n");
    }
    js << "  ],\n  \"fig9_warm_sweep\": {\"scenarios\": " << sweep.scenarios
       << ", \"cold_seconds\": " << sweep.cold_seconds
       << ", \"warm_seconds\": " << sweep.warm_seconds
       << ", \"dual_seconds\": " << sweep.dual_seconds
       << ", \"cold_iterations\": " << sweep.cold_iterations
       << ", \"warm_iterations\": " << sweep.warm_iterations
       << ", \"dual_iterations\": " << sweep.dual_iterations
       << ", \"objectives_match\": " << (sweep.objectives_match ? "true" : "false")
       << "},\n  \"metrics\": " << metrics_snapshot_json() << "\n}\n";
    append_bench_record(json_path, js.str());
  }

  // ---- regression gate ----------------------------------------------------
  bool failed = false;
  for (const auto& c : comparisons) {
    if (!c.objectives_match()) {
      std::cerr << "FAIL: objective mismatch on " << c.name << ": dense "
                << c.dense_objective << " vs sparse " << c.sparse_objective
                << "\n";
      failed = true;
    }
  }
  if (!sweep.objectives_match) {
    std::cerr << "FAIL: warm-started sweep changed an objective\n";
    failed = true;
  }
  if (sweep.warm_iterations > sweep.cold_iterations) {
    std::cerr << "FAIL: warm starts took more simplex iterations ("
              << sweep.warm_iterations << ") than cold starts ("
              << sweep.cold_iterations << ")\n";
    failed = true;
  }
  if (sweep.dual_iterations > sweep.cold_iterations) {
    std::cerr << "FAIL: dual warm starts took more simplex iterations ("
              << sweep.dual_iterations << ") than cold starts ("
              << sweep.cold_iterations << ")\n";
    failed = true;
  }
  if (smoke) {
    // Perf gate on the slowest dense LP measured: the sparse solver must
    // win decisively there (it wins by >5x in practice; 1.5x absorbs CI
    // noise), and the FT+presolve default must not LOSE to the legacy eta
    // configuration (it wins by >1.3x on the large LPs; 0.9x absorbs noise
    // on the small smoke sizes).
    const auto big = std::max_element(
        comparisons.begin(), comparisons.end(),
        [](const Comparison& a, const Comparison& b) {
          return a.dense_seconds < b.dense_seconds;
        });
    if (big != comparisons.end() && big->speedup() < 1.5) {
      std::cerr << "FAIL: sparse speedup " << big->speedup()
                << "x below the 1.5x smoke floor on " << big->name << "\n";
      failed = true;
    }
    if (big != comparisons.end() && big->ft_presolve_speedup() < 0.9) {
      std::cerr << "FAIL: FT+presolve speedup " << big->ft_presolve_speedup()
                << "x below the 0.9x smoke floor on " << big->name << "\n";
      failed = true;
    }
  }
  if (smoke) {
    // Observability overhead gate: with metrics enabled, a smoke LP must
    // solve within 3% of the runtime-disabled path (plus a 20 ms absolute
    // floor so timer noise on sub-millisecond solves cannot trip the gate).
    // Min-of-reps on both sides filters scheduler jitter.
    const DiGraph g = make_generalized_kautz(10, 4);
    const LpModel model = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
    const auto min_solve_seconds = [&](int reps) {
      double best = 1e30;
      for (int r = 0; r < reps; ++r) {
        best = std::min(best, solve_lp(model).solve_seconds);
      }
      return best;
    };
    (void)min_solve_seconds(1);  // warm code and allocator before either leg
    obs::set_metrics_enabled(false);
    const double disabled_min = min_solve_seconds(5);
    obs::set_metrics_enabled(true);
    const double enabled_min = min_solve_seconds(5);
    const double limit = std::max(disabled_min * 1.03, disabled_min + 0.02);
    std::cout << "metrics overhead: disabled " << disabled_min
              << "s, enabled " << enabled_min << "s (limit " << limit
              << "s)\n";
    if (enabled_min > limit) {
      std::cerr << "FAIL: metrics-enabled solve (" << enabled_min
                << "s) exceeds the overhead limit (" << limit << "s)\n";
      failed = true;
    }
  }
  if (failed) return 1;
  std::cout << (smoke ? "\nsmoke OK\n" : "\nok\n");
  return 0;
}
