#include "mcf/timestepped.hpp"

#include "collectives/demand.hpp"
#include "graph/algorithms.hpp"

namespace a2a {

LpModel build_tsmcf_model(const DiGraph& g, int steps,
                          const TerminalPairs& pairs,
                          std::vector<int>* u_vars,
                          const DemandMatrix* demand) {
  A2A_REQUIRE(steps >= 1, "tsMCF needs >= 1 step");
  if (demand != nullptr) {
    A2A_REQUIRE(demand->num_terminals() == pairs.num_terminals(),
                "demand matrix size does not match terminal count");
  }
  const int K = pairs.count();
  const int E = g.num_edges();

  // Reachability pruning: commodity (s,d) flow can cross edge (u,v) at step
  // t only if t >= dist(s,u)+1 and t <= steps - dist(v,d); everything else
  // is fixed at zero via bounds, which shrinks the LP dramatically.
  std::vector<std::vector<int>> dist_from(static_cast<std::size_t>(g.num_nodes()));
  std::vector<std::vector<int>> dist_to(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    dist_from[static_cast<std::size_t>(u)] = bfs_distances(g, u);
    dist_to[static_cast<std::size_t>(u)] = bfs_distances_to(g, u);
  }

  LpModel model(Sense::kMinimize);
  auto var = [&](int k, int e, int t) { return tsmcf_var(E, steps, k, e, t); };
  for (int k = 0; k < K; ++k) {
    const auto [s, d] = pairs.nodes(k);
    const double w = demand_weight(demand, pairs, k);
    if (w > 0.0) {
      A2A_REQUIRE(dist_from[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)] <= steps,
                  "steps below the (s,d) distance — schedule infeasible");
    }
    for (int e = 0; e < E; ++e) {
      const Edge& edge = g.edge(e);
      const int earliest =
          dist_from[static_cast<std::size_t>(s)][static_cast<std::size_t>(edge.from)];
      const int tail =
          dist_to[static_cast<std::size_t>(d)][static_cast<std::size_t>(edge.to)];
      for (int t = 1; t <= steps; ++t) {
        const bool useless = w <= 0.0 || edge.to == s || edge.from == d ||
                             earliest == kUnreachable || tail == kUnreachable ||
                             t < earliest + 1 || t > steps - tail;
        model.add_variable(0.0, useless ? 0.0 : w, 0.0);
      }
    }
  }
  // U_t variables, objective (15).
  std::vector<int> u_var(static_cast<std::size_t>(steps));
  for (int t = 1; t <= steps; ++t) {
    u_var[static_cast<std::size_t>(t - 1)] = model.add_variable(0.0, kInfinity, 1.0);
  }

  // (16): per edge and step, total commodity flow <= U_t (scaled by 1/cap
  // for non-unit capacities).
  for (int e = 0; e < E; ++e) {
    const double inv_cap = 1.0 / g.edge(e).capacity;
    for (int t = 1; t <= steps; ++t) {
      const int row = model.add_row(RowType::kLessEqual, 0.0);
      for (int k = 0; k < K; ++k) model.add_coefficient(row, var(k, e, t), inv_cap);
      model.add_coefficient(row, u_var[static_cast<std::size_t>(t - 1)], -1.0);
    }
  }
  for (int k = 0; k < K; ++k) {
    const auto [s, d] = pairs.nodes(k);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (u == s || u == d) continue;
      // (17): cumulative sends through step t <= cumulative receives
      // through step t-1, for t = 2..steps (t=1 sends are zero by bounds).
      for (int t = 2; t <= steps; ++t) {
        const int row = model.add_row(RowType::kLessEqual, 0.0);
        for (const EdgeId e : g.out_edges(u)) {
          for (int tp = 1; tp <= t; ++tp) model.add_coefficient(row, var(k, e, tp), 1.0);
        }
        for (const EdgeId e : g.in_edges(u)) {
          for (int tp = 1; tp < t; ++tp) model.add_coefficient(row, var(k, e, tp), -1.0);
        }
      }
      // (18): everything received is eventually forwarded.
      const int row = model.add_row(RowType::kEqual, 0.0);
      for (const EdgeId e : g.out_edges(u)) {
        for (int t = 1; t <= steps; ++t) model.add_coefficient(row, var(k, e, t), 1.0);
      }
      for (const EdgeId e : g.in_edges(u)) {
        for (int t = 1; t <= steps; ++t) model.add_coefficient(row, var(k, e, t), -1.0);
      }
    }
    // (19): the full w_k-unit shard leaves s and arrives at d (w_k == 1 for
    // unit demand; zero-weight commodities get trivially satisfied rows so
    // the model shape does not depend on the weights).
    const double w = demand_weight(demand, pairs, k);
    const int src_row = model.add_row(RowType::kEqual, w);
    for (const EdgeId e : g.out_edges(s)) {
      for (int t = 1; t <= steps; ++t) model.add_coefficient(src_row, var(k, e, t), 1.0);
    }
    const int dst_row = model.add_row(RowType::kEqual, w);
    for (const EdgeId e : g.in_edges(d)) {
      for (int t = 1; t <= steps; ++t) model.add_coefficient(dst_row, var(k, e, t), 1.0);
    }
  }
  if (u_vars != nullptr) *u_vars = u_var;
  return model;
}

TsMcfSolution solve_tsmcf_exact(const DiGraph& g, int steps,
                                const std::vector<NodeId>& terminals,
                                const SimplexOptions& lp, LpBasis* warm,
                                LpWarmMode warm_mode,
                                const DemandMatrix* demand) {
  TerminalPairs pairs(terminals);
  const int K = pairs.count();
  const int E = g.num_edges();
  std::vector<int> u_var;
  const LpModel model = build_tsmcf_model(g, steps, pairs, &u_var, demand);
  auto var = [&](int k, int e, int t) { return tsmcf_var(E, steps, k, e, t); };

  // Without a warm basis, start from the all-slack basis and run the dual
  // simplex. The objective min Σ_t U_t has nonnegative costs, so that basis
  // is already dual feasible and the dual needs no phase 1, where the cold
  // primal would first drive an artificial out of every equality row. If
  // the dual gives up, solve_lp falls back to the cold primal.
  LpSolution sol;
  if (warm != nullptr && !warm->empty()) {
    sol = solve_lp_warm(model, lp, warm, warm_mode);
  } else {
    const LpBasis slack = slack_basis(model);
    sol = solve_lp(model, lp, &slack, LpWarmMode::kDual);
    if (warm != nullptr && sol.optimal()) *warm = sol.basis;
  }
  if (!sol.optimal()) {
    throw SolverError("tsMCF LP failed: " + to_string(sol.status));
  }
  TsMcfSolution out;
  out.steps = steps;
  out.pairs = pairs;
  out.step_utilization.resize(static_cast<std::size_t>(steps));
  for (int t = 1; t <= steps; ++t) {
    out.step_utilization[static_cast<std::size_t>(t - 1)] =
        sol.values[static_cast<std::size_t>(u_var[static_cast<std::size_t>(t - 1)])];
    out.total_utilization += out.step_utilization[static_cast<std::size_t>(t - 1)];
  }
  out.flow.assign(static_cast<std::size_t>(K),
                  std::vector<std::vector<double>>(
                      static_cast<std::size_t>(steps),
                      std::vector<double>(static_cast<std::size_t>(E), 0.0)));
  for (int k = 0; k < K; ++k) {
    for (int e = 0; e < E; ++e) {
      for (int t = 1; t <= steps; ++t) {
        const double v = sol.values[static_cast<std::size_t>(var(k, e, t))];
        if (v > 1e-10) {
          out.flow[static_cast<std::size_t>(k)][static_cast<std::size_t>(t - 1)]
                  [static_cast<std::size_t>(e)] = v;
        }
      }
    }
  }
  out.solve_seconds = sol.solve_seconds;
  out.lp_stats = sol.stats;
  return out;
}

}  // namespace a2a
