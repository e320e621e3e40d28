#include "graph/algorithms.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>

namespace a2a {

std::vector<int> bfs_distances(const DiGraph& g, NodeId source) {
  A2A_REQUIRE(source >= 0 && source < g.num_nodes(), "source out of range");
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()), kUnreachable);
  std::deque<NodeId> queue{source};
  dist[static_cast<std::size_t>(source)] = 0;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const EdgeId e : g.out_edges(u)) {
      const NodeId v = g.edge(e).to;
      if (dist[static_cast<std::size_t>(v)] == kUnreachable) {
        dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<int> bfs_distances_to(const DiGraph& g, NodeId target) {
  A2A_REQUIRE(target >= 0 && target < g.num_nodes(), "target out of range");
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()), kUnreachable);
  std::deque<NodeId> queue{target};
  dist[static_cast<std::size_t>(target)] = 0;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const EdgeId e : g.in_edges(u)) {
      const NodeId v = g.edge(e).from;
      if (dist[static_cast<std::size_t>(v)] == kUnreachable) {
        dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

bool is_strongly_connected(const DiGraph& g) {
  if (g.num_nodes() <= 1) return true;
  const auto fwd = bfs_distances(g, 0);
  if (std::count(fwd.begin(), fwd.end(), kUnreachable) > 0) return false;
  const auto bwd = bfs_distances_to(g, 0);
  return std::count(bwd.begin(), bwd.end(), kUnreachable) == 0;
}

int diameter(const DiGraph& g) {
  int best = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    const auto dist = bfs_distances(g, s);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      A2A_REQUIRE(dist[static_cast<std::size_t>(t)] != kUnreachable,
                  "diameter of a disconnected graph");
      best = std::max(best, dist[static_cast<std::size_t>(t)]);
    }
  }
  return best;
}

long long total_pairwise_distance(const DiGraph& g) {
  long long total = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    const auto dist = bfs_distances(g, s);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (t == s) continue;
      A2A_REQUIRE(dist[static_cast<std::size_t>(t)] != kUnreachable,
                  "distance sum of a disconnected graph");
      total += dist[static_cast<std::size_t>(t)];
    }
  }
  return total;
}

std::optional<WidestPathResult> widest_path(const DiGraph& g, NodeId s,
                                            NodeId t,
                                            const std::vector<double>& width,
                                            double min_width) {
  A2A_REQUIRE(width.size() == static_cast<std::size_t>(g.num_edges()),
              "width vector size mismatch");
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> best(n, 0.0);
  std::vector<EdgeId> parent(n, -1);
  std::vector<bool> done(n, false);
  best[static_cast<std::size_t>(s)] = std::numeric_limits<double>::infinity();
  // Max-heap on bottleneck width.
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item> heap;
  heap.emplace(best[static_cast<std::size_t>(s)], s);
  while (!heap.empty()) {
    const auto [w, u] = heap.top();
    heap.pop();
    if (done[static_cast<std::size_t>(u)]) continue;
    done[static_cast<std::size_t>(u)] = true;
    if (u == t) break;
    for (const EdgeId e : g.out_edges(u)) {
      const double ew = width[static_cast<std::size_t>(e)];
      if (ew <= min_width) continue;
      const NodeId v = g.edge(e).to;
      const double cand = std::min(w, ew);
      if (cand > best[static_cast<std::size_t>(v)]) {
        best[static_cast<std::size_t>(v)] = cand;
        parent[static_cast<std::size_t>(v)] = e;
        heap.emplace(cand, v);
      }
    }
  }
  if (best[static_cast<std::size_t>(t)] <= min_width) return std::nullopt;
  WidestPathResult result;
  result.bottleneck = best[static_cast<std::size_t>(t)];
  for (NodeId at = t; at != s;) {
    const EdgeId e = parent[static_cast<std::size_t>(at)];
    A2A_ASSERT(e >= 0, "widest path backtrack broke");
    result.path.push_back(e);
    at = g.edge(e).from;
  }
  std::reverse(result.path.begin(), result.path.end());
  return result;
}

DijkstraTree dijkstra_tree(const DiGraph& g, NodeId s,
                           const std::vector<double>& length) {
  A2A_REQUIRE(length.size() == static_cast<std::size_t>(g.num_edges()),
              "length vector size mismatch");
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  DijkstraTree tree;
  tree.dist.assign(n, std::numeric_limits<double>::infinity());
  tree.parent_edge.assign(n, -1);
  std::vector<bool> done(n, false);
  tree.dist[static_cast<std::size_t>(s)] = 0.0;
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0.0, s);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (done[static_cast<std::size_t>(u)]) continue;
    done[static_cast<std::size_t>(u)] = true;
    for (const EdgeId e : g.out_edges(u)) {
      const double l = length[static_cast<std::size_t>(e)];
      A2A_REQUIRE(l >= 0.0, "negative edge length in Dijkstra");
      const NodeId v = g.edge(e).to;
      if (d + l < tree.dist[static_cast<std::size_t>(v)] - 1e-15) {
        tree.dist[static_cast<std::size_t>(v)] = d + l;
        tree.parent_edge[static_cast<std::size_t>(v)] = e;
        heap.emplace(d + l, v);
      }
    }
  }
  return tree;
}

std::optional<Path> dijkstra_path(const DiGraph& g, NodeId s, NodeId t,
                                  const std::vector<double>& length) {
  const DijkstraTree tree = dijkstra_tree(g, s, length);
  if (!std::isfinite(tree.dist[static_cast<std::size_t>(t)])) return std::nullopt;
  Path path;
  for (NodeId at = t; at != s;) {
    const EdgeId e = tree.parent_edge[static_cast<std::size_t>(at)];
    A2A_ASSERT(e >= 0, "Dijkstra backtrack broke");
    path.push_back(e);
    at = g.edge(e).from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<Path> edge_disjoint_paths(const DiGraph& g, NodeId s, NodeId t,
                                      int max_paths) {
  A2A_REQUIRE(s != t, "no paths from a node to itself");
  // Unit-capacity max-flow via repeated BFS augmentation in the residual
  // graph. residual[e] == true means the arc is still usable forward;
  // used[e] == true means the arc carries flow (usable backward).
  const std::size_t m = static_cast<std::size_t>(g.num_edges());
  std::vector<bool> used(m, false);
  int flow = 0;
  const int limit = max_paths < 0 ? g.num_edges() : max_paths;
  while (flow < limit) {
    // BFS over residual arcs: forward unused edges, backward used edges.
    std::vector<std::pair<EdgeId, bool>> how(
        static_cast<std::size_t>(g.num_nodes()), {-1, false});
    std::vector<bool> seen(static_cast<std::size_t>(g.num_nodes()), false);
    std::deque<NodeId> queue{s};
    seen[static_cast<std::size_t>(s)] = true;
    bool reached = false;
    while (!queue.empty() && !reached) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const EdgeId e : g.out_edges(u)) {
        const NodeId v = g.edge(e).to;
        if (!used[static_cast<std::size_t>(e)] && !seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = true;
          how[static_cast<std::size_t>(v)] = {e, true};
          if (v == t) {
            reached = true;
            break;
          }
          queue.push_back(v);
        }
      }
      if (reached) break;
      for (const EdgeId e : g.in_edges(u)) {
        const NodeId v = g.edge(e).from;
        if (used[static_cast<std::size_t>(e)] && !seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = true;
          how[static_cast<std::size_t>(v)] = {e, false};
          queue.push_back(v);
        }
      }
    }
    if (!reached) break;
    // Apply the augmenting path.
    for (NodeId at = t; at != s;) {
      const auto [e, forward] = how[static_cast<std::size_t>(at)];
      used[static_cast<std::size_t>(e)] = forward;
      at = forward ? g.edge(e).from : g.edge(e).to;
    }
    ++flow;
  }
  // Decompose the used-edge set into paths by walking from s.
  std::vector<std::vector<EdgeId>> used_out(static_cast<std::size_t>(g.num_nodes()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (used[static_cast<std::size_t>(e)]) {
      used_out[static_cast<std::size_t>(g.edge(e).from)].push_back(e);
    }
  }
  std::vector<Path> paths;
  for (int i = 0; i < flow; ++i) {
    Path p;
    NodeId at = s;
    while (at != t) {
      auto& outs = used_out[static_cast<std::size_t>(at)];
      A2A_ASSERT(!outs.empty(), "flow decomposition stuck at node ", at);
      const EdgeId e = outs.back();
      outs.pop_back();
      p.push_back(e);
      at = g.edge(e).to;
    }
    paths.push_back(std::move(p));
  }
  return paths;
}

std::vector<double> ewsp_edge_fractions(const DiGraph& g, NodeId s, NodeId t) {
  const auto dist_from_s = bfs_distances(g, s);
  const auto dist_to_t = bfs_distances_to(g, t);
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  const int sp = dist_from_s[static_cast<std::size_t>(t)];
  std::vector<double> frac(static_cast<std::size_t>(g.num_edges()), 0.0);
  A2A_REQUIRE(sp != kUnreachable, "t unreachable from s");
  // Edge e=(u,v) lies on a shortest path iff d(s,u) + 1 + d(v,t) == d(s,t).
  // Count shortest paths from s to each node (forward DP over the DAG) and
  // from each node to t (backward DP); paths through e = cnt_s[u]*cnt_t[v].
  std::vector<double> cnt_s(n, 0.0), cnt_t(n, 0.0);
  cnt_s[static_cast<std::size_t>(s)] = 1.0;
  cnt_t[static_cast<std::size_t>(t)] = 1.0;
  // Process nodes in increasing dist-from-s order for cnt_s.
  std::vector<NodeId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<NodeId>(i);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return dist_from_s[static_cast<std::size_t>(a)] < dist_from_s[static_cast<std::size_t>(b)];
  });
  for (const NodeId u : order) {
    if (dist_from_s[static_cast<std::size_t>(u)] == kUnreachable) continue;
    for (const EdgeId e : g.out_edges(u)) {
      const NodeId v = g.edge(e).to;
      if (dist_from_s[static_cast<std::size_t>(v)] ==
          dist_from_s[static_cast<std::size_t>(u)] + 1) {
        cnt_s[static_cast<std::size_t>(v)] += cnt_s[static_cast<std::size_t>(u)];
      }
    }
  }
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return dist_to_t[static_cast<std::size_t>(a)] < dist_to_t[static_cast<std::size_t>(b)];
  });
  for (const NodeId v : order) {
    if (dist_to_t[static_cast<std::size_t>(v)] == kUnreachable) continue;
    for (const EdgeId e : g.in_edges(v)) {
      const NodeId u = g.edge(e).from;
      if (dist_to_t[static_cast<std::size_t>(u)] ==
          dist_to_t[static_cast<std::size_t>(v)] + 1) {
        cnt_t[static_cast<std::size_t>(u)] += cnt_t[static_cast<std::size_t>(v)];
      }
    }
  }
  const double total = cnt_s[static_cast<std::size_t>(t)];
  A2A_ASSERT(total > 0, "no shortest path counted");
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    const int du = dist_from_s[static_cast<std::size_t>(edge.from)];
    const int dv = dist_to_t[static_cast<std::size_t>(edge.to)];
    if (du != kUnreachable && dv != kUnreachable && du + 1 + dv == sp) {
      frac[static_cast<std::size_t>(e)] =
          cnt_s[static_cast<std::size_t>(edge.from)] *
          cnt_t[static_cast<std::size_t>(edge.to)] / total;
    }
  }
  return frac;
}

namespace {
void enumerate_sp_dfs(const DiGraph& g, NodeId at, NodeId t,
                      const std::vector<int>& dist_to_t, Path& current,
                      std::vector<Path>& out, int limit, bool* truncated) {
  if (static_cast<int>(out.size()) >= limit) {
    if (truncated != nullptr) *truncated = true;
    return;
  }
  if (at == t) {
    out.push_back(current);
    return;
  }
  for (const EdgeId e : g.out_edges(at)) {
    const NodeId v = g.edge(e).to;
    if (dist_to_t[static_cast<std::size_t>(v)] ==
        dist_to_t[static_cast<std::size_t>(at)] - 1) {
      current.push_back(e);
      enumerate_sp_dfs(g, v, t, dist_to_t, current, out, limit, truncated);
      current.pop_back();
      if (static_cast<int>(out.size()) >= limit) return;
    }
  }
}
}  // namespace

std::vector<Path> enumerate_shortest_paths(const DiGraph& g, NodeId s, NodeId t,
                                           int limit, bool* truncated) {
  A2A_REQUIRE(limit > 0, "non-positive enumeration limit");
  if (truncated != nullptr) *truncated = false;
  const auto dist_to_t = bfs_distances_to(g, t);
  A2A_REQUIRE(dist_to_t[static_cast<std::size_t>(s)] != kUnreachable,
              "t unreachable from s");
  // Enumerate one extra path so truncation is detected even when the DFS
  // bails out between complete paths.
  std::vector<Path> out;
  Path current;
  enumerate_sp_dfs(g, s, t, dist_to_t, current, out, limit + 1, nullptr);
  if (static_cast<int>(out.size()) > limit) {
    if (truncated != nullptr) *truncated = true;
    out.resize(static_cast<std::size_t>(limit));
  }
  return out;
}

long long count_bounded_paths(const DiGraph& g, NodeId s, NodeId t, int max_len,
                              long long cap) {
  A2A_REQUIRE(max_len >= 0 && cap > 0, "bad bounds");
  // DP over walk counts of exact length L; a saturating count of walks upper
  // bounds simple paths and is exactly what the diversity heuristic needs.
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  std::vector<long long> cur(n, 0);
  cur[static_cast<std::size_t>(s)] = 1;
  long long total = 0;
  for (int len = 1; len <= max_len; ++len) {
    std::vector<long long> next(n, 0);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const long long c = cur[static_cast<std::size_t>(u)];
      if (c == 0 || u == t) continue;  // walks stop at t
      for (const EdgeId e : g.out_edges(u)) {
        auto& slot = next[static_cast<std::size_t>(g.edge(e).to)];
        slot = std::min(cap, slot + c);
      }
    }
    total = std::min(cap, total + next[static_cast<std::size_t>(t)]);
    if (total >= cap) return cap;
    cur = std::move(next);
  }
  return total;
}

}  // namespace a2a
