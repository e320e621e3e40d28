#include "mcf/bounds.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"

namespace a2a {

double alltoall_time_lower_bound(const DiGraph& g) {
  const int n = g.num_nodes();
  A2A_REQUIRE(n >= 2, "bound needs >= 2 nodes");
  double total_capacity = 0.0;
  for (const Edge& e : g.edges()) total_capacity += e.capacity;
  A2A_REQUIRE(total_capacity > 0.0, "graph has no capacity");
  const double aggregate =
      static_cast<double>(total_pairwise_distance(g)) / total_capacity;

  double node_bound = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    double out_cap = 0.0, in_cap = 0.0;
    for (const EdgeId e : g.out_edges(u)) out_cap += g.edge(e).capacity;
    for (const EdgeId e : g.in_edges(u)) in_cap += g.edge(e).capacity;
    A2A_REQUIRE(out_cap > 0.0 && in_cap > 0.0, "isolated node ", u);
    node_bound = std::max(node_bound, (n - 1) / out_cap);
    node_bound = std::max(node_bound, (n - 1) / in_cap);
  }
  return std::max(aggregate, node_bound);
}

double concurrent_flow_upper_bound(const DiGraph& g) {
  return 1.0 / alltoall_time_lower_bound(g);
}

double regular_graph_time_bound(int n, int d) {
  A2A_REQUIRE(n >= 2 && d >= 1, "bound needs n >= 2, d >= 1");
  // Distance sum of the best-case arborescence: d^k nodes at depth k until
  // N nodes are covered.
  long long remaining = n - 1;
  long long level_size = 1;
  long long depth = 1;
  double distance_sum = 0.0;
  while (remaining > 0) {
    level_size = std::min<long long>(level_size * d, remaining);
    distance_sum += static_cast<double>(depth) * static_cast<double>(level_size);
    remaining -= level_size;
    ++depth;
  }
  return distance_sum / static_cast<double>(d);
}

}  // namespace a2a
