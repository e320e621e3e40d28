// Core graph algorithms shared by the MCF formulations and the baselines.
#pragma once

#include <optional>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/paths.hpp"

namespace a2a {

/// Unreachable marker in distance vectors.
inline constexpr int kUnreachable = -1;

/// Hop distances from `source` over arcs (BFS). dist[source] == 0.
[[nodiscard]] std::vector<int> bfs_distances(const DiGraph& g, NodeId source);

/// Hop distances *to* `target` (BFS on reversed arcs).
[[nodiscard]] std::vector<int> bfs_distances_to(const DiGraph& g, NodeId target);

/// True iff every node reaches every other node.
[[nodiscard]] bool is_strongly_connected(const DiGraph& g);

/// Longest finite shortest-path distance. Throws if disconnected.
[[nodiscard]] int diameter(const DiGraph& g);

/// Sum over ordered pairs (s != t) of hop distance. Used by the Theorem 1
/// lower bound. Throws if disconnected.
[[nodiscard]] long long total_pairwise_distance(const DiGraph& g);

/// Widest (maximum-bottleneck) path from s to t where `width[e]` gives each
/// edge's remaining width. Returns the path and its bottleneck, or nullopt
/// if no positive-width path exists. Edges with width <= `min_width` are
/// ignored. This is the §3.2.1 widest-path primitive (Dijkstra on max-min).
struct WidestPathResult {
  Path path;
  double bottleneck = 0.0;
};
[[nodiscard]] std::optional<WidestPathResult> widest_path(
    const DiGraph& g, NodeId s, NodeId t, const std::vector<double>& width,
    double min_width = 0.0);

/// Shortest path under non-negative per-edge lengths (Dijkstra). Returns
/// nullopt if unreachable. Ties broken by fewer hops then smaller edge ids,
/// so results are deterministic.
[[nodiscard]] std::optional<Path> dijkstra_path(const DiGraph& g, NodeId s,
                                                NodeId t,
                                                const std::vector<double>& length);

/// Single-source Dijkstra: returns per-node predecessor edge (-1 if none)
/// and distances (infinity if unreachable).
struct DijkstraTree {
  std::vector<double> dist;
  std::vector<EdgeId> parent_edge;
};
[[nodiscard]] DijkstraTree dijkstra_tree(const DiGraph& g, NodeId s,
                                         const std::vector<double>& length);

/// Maximal set of pairwise edge-disjoint s->t paths (unit-capacity max-flow
/// with BFS augmentation, then path decomposition). Used for the pMCF
/// disjoint candidate sets (§3.1.4).
[[nodiscard]] std::vector<Path> edge_disjoint_paths(const DiGraph& g, NodeId s,
                                                    NodeId t,
                                                    int max_paths = -1);

/// Per-edge count of shortest s->t paths through each edge, divided by the
/// total number of shortest paths — i.e. the fractional load EwSP places on
/// each edge for one unit of (s,t) demand. Computed by DAG DP in O(E),
/// without enumerating paths.
[[nodiscard]] std::vector<double> ewsp_edge_fractions(const DiGraph& g,
                                                      NodeId s, NodeId t);

/// Enumerates shortest s->t paths, up to `limit` of them (DFS over the
/// shortest-path DAG). Sets `truncated` if more exist.
[[nodiscard]] std::vector<Path> enumerate_shortest_paths(const DiGraph& g,
                                                         NodeId s, NodeId t,
                                                         int limit,
                                                         bool* truncated = nullptr);

/// Counts s->t paths of length <= max_len, saturating at `cap`. Used by the
/// Fig. 1 path-diversity test ("#(s,d) paths large?").
[[nodiscard]] long long count_bounded_paths(const DiGraph& g, NodeId s, NodeId t,
                                            int max_len, long long cap);

}  // namespace a2a
