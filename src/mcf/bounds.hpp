// Analytical bounds on all-to-all performance — Theorem 1 (§5.4).
#pragma once

#include "graph/digraph.hpp"

namespace a2a {

/// Lower bound on the all-to-all completion time 1/F per unit demand:
///   max( Σ_{s,t} D(s,t) / Σ_e cap_e ,          — aggregate capacity bound
///        max_r (N-1) / outcap(r),              — injection bound
///        max_r (N-1) / incap(r) )              — drain bound
/// The first term is the Theorem-1 bound generalized to irregular capacities
/// (every shard must traverse at least its BFS distance in link-transmissions).
[[nodiscard]] double alltoall_time_lower_bound(const DiGraph& g);

/// Matching upper bound on the concurrent rate: F <= 1 / time_lower_bound.
[[nodiscard]] double concurrent_flow_upper_bound(const DiGraph& g);

/// The Θ(N log_d N) closed form of Theorem 1 for d-regular graphs, i.e. the
/// distance sum of a complete d-ary arborescence divided by d — the ideal
/// floor any N-node degree-d topology can approach (Fig. 10 left).
[[nodiscard]] double regular_graph_time_bound(int n, int d);

}  // namespace a2a
