// Time-stepped MCF (tsMCF) — §3.1.3, eqs. (15)-(20).
//
// For ML-style fabrics where accelerators exchange finite chunks in
// synchronized steps, the fluid MCF is extended to the temporal domain. The
// exact LP is solved on the time-expanded structure and yields, for every
// commodity, edge, and step, the fraction of the shard crossing that edge at
// that step; the objective Σ_t U_t is the completion time in units of
// (shard bytes / link bandwidth), so the optimum equals 1/F of the fluid
// MCF when `steps` is large enough.
#pragma once

#include <vector>

#include "graph/digraph.hpp"
#include "lp/simplex.hpp"
#include "mcf/concurrent_flow.hpp"

namespace a2a {

struct TsMcfSolution {
  int steps = 0;
  /// Σ_t U_t: total per-link time (in shard-transmission units) of the
  /// schedule; the per-step peak utilizations.
  double total_utilization = 0.0;
  std::vector<double> step_utilization;
  TerminalPairs pairs{std::vector<NodeId>{}};
  /// flow[pair][step-1][edge] — fraction of the (s,d) shard crossing `edge`
  /// during that step.
  std::vector<std::vector<std::vector<double>>> flow;
  double solve_seconds = 0.0;
  /// Engine counters of the LP solve: pivots in total and per engine, and
  /// whether the dual simplex produced the answer.
  LpStats lp_stats;
};

/// Variable layout of the tsMCF LP: flow of commodity k on edge e during
/// step t (1-based). The single definition shared by the model builder and
/// every consumer of LpSolution::values.
[[nodiscard]] inline int tsmcf_var(int num_edges, int steps, int k, int e,
                                   int t) {
  return (k * num_edges + e) * steps + (t - 1);
}

/// Builds the tsMCF LP (eqs. 15–20) without solving it. Variables follow
/// tsmcf_var() with the per-step peak-utilization variables U_t appended
/// last (`*u_vars`, one per step). Exposed so benchmarks and tests can
/// time/inspect the exact model solve_tsmcf_exact runs. With `demand`,
/// commodity k ships a shard of w_k units (eq. 19 rhs and the per-variable
/// upper bound become w_k; zero-weight commodities are fixed to zero and
/// exempt from the distance feasibility check). A unit matrix builds the
/// identical model to nullptr.
[[nodiscard]] LpModel build_tsmcf_model(const DiGraph& g, int steps,
                                        const TerminalPairs& pairs,
                                        std::vector<int>* u_vars = nullptr,
                                        const DemandMatrix* demand = nullptr);

/// Exact tsMCF. The LP grows as O(K * E * steps) variables, so this is for
/// small fabrics (the paper's N=8/N=27 testbeds; N=27 already requires the
/// decomposed path-unrolled pipeline in schedule/compile_link.hpp).
/// `steps` must be >= diameter(g). A non-null `warm` is used as the LP
/// starting basis when non-empty (exploited per `warm_mode`) and receives
/// the final basis, letting repeated solves on the same fabric shape skip
/// phase 1. Without a warm basis the LP starts from slack_basis() and runs
/// the dual simplex; `warm_mode` then plays no part.
[[nodiscard]] TsMcfSolution solve_tsmcf_exact(const DiGraph& g, int steps,
                                              const std::vector<NodeId>& terminals,
                                              const SimplexOptions& lp = {},
                                              LpBasis* warm = nullptr,
                                              LpWarmMode warm_mode = LpWarmMode::kAuto,
                                              const DemandMatrix* demand = nullptr);

}  // namespace a2a
