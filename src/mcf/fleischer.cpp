#include "mcf/fleischer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>

#include "collectives/demand.hpp"
#include "graph/algorithms.hpp"
#include "obs/metrics.hpp"

namespace a2a {

namespace {

/// Phase-boundary deadline check. Fleischer's rescale makes the flow of any
/// completed-phase prefix feasible, so cutting the loop here degrades F
/// gracefully instead of invalidating the solution. Phases are long enough
/// (one Dijkstra/scan per source or commodity) that a clock read per phase
/// is noise.
bool phase_deadline_hit(const FleischerOptions& options,
                        std::chrono::steady_clock::time_point start) {
  if (options.time_limit_s <= 0.0) return false;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return elapsed >= options.time_limit_s;
}

double initial_length_delta(double epsilon, int num_edges) {
  // Theory value delta = (1+eps) * ((1+eps) m)^{-1/eps}; clamped away from
  // denormals for tiny epsilon.
  const double raw = (1.0 + epsilon) *
                     std::pow((1.0 + epsilon) * num_edges, -1.0 / epsilon);
  return std::max(raw, 1e-280);
}

}  // namespace

GroupedFlowSolution fleischer_grouped(const DiGraph& g,
                                      const std::vector<NodeId>& terminals,
                                      const FleischerOptions& options,
                                      const DemandMatrix* demand) {
  A2A_REQUIRE(terminals.size() >= 2, "need at least two terminals");
  A2A_REQUIRE(options.epsilon > 0.0 && options.epsilon < 0.5,
              "epsilon must be in (0, 0.5)");
  if (demand != nullptr) {
    A2A_REQUIRE(demand->num_terminals() == static_cast<int>(terminals.size()),
                "demand matrix size does not match terminal count");
    A2A_REQUIRE(demand->total() > 0.0, "all-zero demand matrix");
  }
  const auto start = std::chrono::steady_clock::now();
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  const int S = static_cast<int>(terminals.size());
  const double eps = options.epsilon;

  std::vector<double> cap(m);
  for (std::size_t e = 0; e < m; ++e) cap[e] = g.edge(static_cast<int>(e)).capacity;
  const double delta = initial_length_delta(eps, g.num_edges());
  std::vector<double> length(m);
  // The dual value sum_e cap_e * length_e only ever grows (lengths are
  // multiplied by factors >= 1), so it is maintained incrementally at every
  // length update instead of re-summing all m edges per phase check.
  double dual = 0.0;
  double capacity = 0.0;
  for (std::size_t e = 0; e < m; ++e) {
    length[e] = delta / cap[e];
    dual += cap[e] * length[e];
    capacity += cap[e];
  }

  long long shortest_paths = 0;
  // alpha(l) = sum_{s != d} w(s,d) * dist_l(s,d): the cheapest way to ship
  // one phase of demand under lengths l. Weak duality gives
  // F* <= D(l) / alpha(l) for every l >= 0, D(l) = sum_e cap_e * l_e.
  const auto weighted_distance = [&](const std::vector<double>& l) {
    double alpha = 0.0;
    for (int si = 0; si < S; ++si) {
      if (demand != nullptr && demand->row_sum(si) <= 0.0) continue;
      const DijkstraTree tree =
          dijkstra_tree(g, terminals[static_cast<std::size_t>(si)], l);
      ++shortest_paths;
      for (int di = 0; di < S; ++di) {
        if (di == si) continue;
        const double w = demand == nullptr ? 1.0 : demand->at(si, di);
        if (w <= 0.0) continue;
        alpha += w * tree.dist[static_cast<std::size_t>(
                         terminals[static_cast<std::size_t>(di)])];
      }
    }
    return alpha;
  };
  // Unit lengths: Theorem 1's capacity / distance bound, generalised to
  // this terminal set and demand matrix.
  double upper = capacity / weighted_distance(std::vector<double>(m, 1.0));

  std::vector<std::vector<double>> flow(
      static_cast<std::size_t>(S), std::vector<double>(m, 0.0));
  // Summed flow and its congestion mu = max_e total_e / cap_e, kept as flow
  // is routed: after p complete phases, p / mu is the feasible F.
  std::vector<double> total(m, 0.0);
  double mu = 0.0;

  // Hoisted out of the phase loop: per-sink remaining demand and the
  // per-step edge request accumulator (reset via its touched set).
  std::vector<double> sink_demand(static_cast<std::size_t>(S), 0.0);
  std::vector<double> request(m, 0.0);
  std::vector<EdgeId> requested;
  requested.reserve(m);
  const auto remaining_demand = [&] {
    double remaining = 0.0;
    for (const double d : sink_demand) remaining += d;
    return remaining;
  };

  // p / mu is a valid lower bound only while every phase so far routed all
  // of its demand; a routing guard that runs out disables the gap stop.
  bool all_routed = true;
  long long phases = 0;
  while (dual < 1.0 && phases < kFleischerMaxPhases) {
    // >= 1 phase always runs: the rescale needs some flow (mu > 0).
    if (phases > 0 && phase_deadline_hit(options, start)) break;
    ++phases;
    for (int si = 0; si < S; ++si) {
      const NodeId s = terminals[static_cast<std::size_t>(si)];
      // Remaining demand of w(si,di) (1 when unweighted) towards every
      // other terminal this phase. An all-zero row exits the routing loop
      // immediately below, so silent sources cost one pass, no Dijkstra.
      if (demand == nullptr) {
        std::fill(sink_demand.begin(), sink_demand.end(), 1.0);
      } else {
        for (int di = 0; di < S; ++di) {
          sink_demand[static_cast<std::size_t>(di)] = demand->at(si, di);
        }
      }
      sink_demand[static_cast<std::size_t>(si)] = 0.0;
      for (int guard = 0; guard < 64 * S + 1024; ++guard) {
        if (remaining_demand() <= 1e-12) break;
        // Shortest-path tree under the current lengths; route every sink's
        // remaining demand along it, capacity-limited by a common factor.
        const DijkstraTree tree = dijkstra_tree(g, s, length);
        ++shortest_paths;
        requested.clear();
        for (int di = 0; di < S; ++di) {
          const double dem = sink_demand[static_cast<std::size_t>(di)];
          if (dem <= 0.0) continue;
          NodeId at = terminals[static_cast<std::size_t>(di)];
          while (at != s) {
            const EdgeId e = tree.parent_edge[static_cast<std::size_t>(at)];
            A2A_ASSERT(e >= 0, "terminal unreachable in Fleischer routing");
            if (request[static_cast<std::size_t>(e)] == 0.0) requested.push_back(e);
            request[static_cast<std::size_t>(e)] += dem;
            at = g.edge(e).from;
          }
        }
        double gamma = 1.0;
        for (const EdgeId e : requested) {
          gamma = std::min(gamma, cap[static_cast<std::size_t>(e)] /
                                      request[static_cast<std::size_t>(e)]);
        }
        auto& fs = flow[static_cast<std::size_t>(si)];
        for (const EdgeId e : requested) {
          const std::size_t es = static_cast<std::size_t>(e);
          const double routed = gamma * request[es];
          request[es] = 0.0;
          fs[es] += routed;
          total[es] += routed;
          mu = std::max(mu, total[es] / cap[es]);
          const double grown = length[es] * (1.0 + eps * routed / cap[es]);
          dual += cap[es] * (grown - length[es]);
          length[es] = grown;
        }
        for (auto& d : sink_demand) d -= gamma * d;
      }
      if (remaining_demand() > 1e-12) all_routed = false;
    }
    // Certified stop: alpha is taken on the end-of-phase lengths, one
    // Dijkstra per source; the routing trees saw lengths from mid-phase.
    // The unit-length bound is tight only for uniform demand on symmetric
    // graphs (torus, hypercube); under skewed demand or on GenKautz,
    // random-regular and uneven tori this term is the one that certifies.
    upper = std::min(upper, dual / weighted_distance(length));
    if (all_routed && static_cast<double>(phases) / mu >= (1.0 - eps) * upper) {
      break;
    }
  }

  // Congestion rescale: the accumulated flow delivered `phases` units per
  // commodity; dividing by the worst overload makes it feasible.
  A2A_ASSERT(mu > 0.0, "Fleischer produced no flow");
  GroupedFlowSolution out;
  out.terminals = terminals;
  out.concurrent_flow = static_cast<double>(phases) / mu;
  out.upper_bound = upper;
  out.phases = phases;
  out.per_source = std::move(flow);
  for (auto& fs : out.per_source) {
    for (auto& f : fs) f /= mu;
  }
  out.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Pushed once per solve, like LpStats: the phase loop stays atomic-free.
  A2A_COUNTER("fptas.solves").inc();
  A2A_COUNTER("fptas.phases").add(static_cast<std::uint64_t>(phases));
  A2A_COUNTER("fptas.shortest_paths")
      .add(static_cast<std::uint64_t>(shortest_paths));
  A2A_GAUGE("fptas.gap_ppm")
      .set(std::llround(1e6 * (upper - out.concurrent_flow) / upper));
  return out;
}

PathFlowSolution fleischer_paths(const DiGraph& g, const PathSet& paths,
                                 const FleischerOptions& options) {
  A2A_REQUIRE(paths.commodities.size() == paths.candidates.size(),
              "path set shape mismatch");
  A2A_REQUIRE(options.epsilon > 0.0 && options.epsilon < 0.5,
              "epsilon must be in (0, 0.5)");
  const auto start = std::chrono::steady_clock::now();
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  const std::size_t K = paths.commodities.size();
  const double eps = options.epsilon;

  std::vector<double> cap(m);
  for (std::size_t e = 0; e < m; ++e) cap[e] = g.edge(static_cast<int>(e)).capacity;
  const double delta = initial_length_delta(eps, g.num_edges());
  std::vector<double> length(m);
  // Incrementally maintained dual sum_e cap_e * length_e (monotone growing).
  double dual = 0.0;
  for (std::size_t e = 0; e < m; ++e) {
    length[e] = delta / cap[e];
    dual += cap[e] * length[e];
  }

  PathFlowSolution out;
  out.weights.resize(K);
  double total_demand = 0.0;
  for (std::size_t k = 0; k < K; ++k) {
    A2A_REQUIRE(!paths.candidates[k].empty(), "commodity ", k,
                " has no candidate paths");
    A2A_REQUIRE(paths.demand_of(k) >= 0.0, "negative commodity demand");
    total_demand += paths.demand_of(k);
    out.weights[k].assign(paths.candidates[k].size(), 0.0);
  }
  A2A_REQUIRE(total_demand > 0.0, "path set carries no demand");

  long long phases = 0;
  while (dual < 1.0 && phases < kFleischerMaxPhases) {
    // >= 1 phase always runs: the rescale needs some flow (mu > 0).
    if (phases > 0 && phase_deadline_hit(options, start)) break;
    ++phases;
    for (std::size_t k = 0; k < K; ++k) {
      double demand = paths.demand_of(k);
      for (int guard = 0; guard < 4096 && demand > 1e-12; ++guard) {
        // Cheapest candidate under current lengths.
        std::size_t best = 0;
        double best_len = std::numeric_limits<double>::infinity();
        for (std::size_t p = 0; p < paths.candidates[k].size(); ++p) {
          double l = 0.0;
          for (const EdgeId e : paths.candidates[k][p]) {
            l += length[static_cast<std::size_t>(e)];
          }
          if (l < best_len) {
            best_len = l;
            best = p;
          }
        }
        const Path& path = paths.candidates[k][best];
        double chunk = demand;
        for (const EdgeId e : path) {
          chunk = std::min(chunk, cap[static_cast<std::size_t>(e)]);
        }
        out.weights[k][best] += chunk;
        for (const EdgeId e : path) {
          const std::size_t es = static_cast<std::size_t>(e);
          const double grown = length[es] * (1.0 + eps * chunk / cap[es]);
          dual += cap[es] * (grown - length[es]);
          length[es] = grown;
        }
        demand -= chunk;
      }
    }
  }

  std::vector<double> total(m, 0.0);
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t p = 0; p < out.weights[k].size(); ++p) {
      for (const EdgeId e : paths.candidates[k][p]) {
        total[static_cast<std::size_t>(e)] += out.weights[k][p];
      }
    }
  }
  double mu = 0.0;
  for (std::size_t e = 0; e < m; ++e) {
    if (cap[e] > 0.0) mu = std::max(mu, total[e] / cap[e]);
  }
  A2A_ASSERT(mu > 0.0, "Fleischer produced no flow");
  out.concurrent_flow = static_cast<double>(phases) / mu;
  for (auto& w : out.weights) {
    for (auto& v : w) v /= mu;
  }
  out.phases = phases;
  out.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

}  // namespace a2a
