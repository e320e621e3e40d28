#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "graph/topologies.hpp"

namespace a2a {
namespace {

TEST(GraphAlgorithms, BfsDistancesOnRing) {
  const DiGraph g = make_ring(6);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist, (std::vector<int>{0, 1, 2, 3, 2, 1}));
  const auto dist_to = bfs_distances_to(g, 0);
  EXPECT_EQ(dist_to, (std::vector<int>{0, 1, 2, 3, 2, 1}));
}

TEST(GraphAlgorithms, BfsDirectional) {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto dist = bfs_distances(g, 2);
  EXPECT_EQ(dist[0], kUnreachable);
  EXPECT_FALSE(is_strongly_connected(g));
}

TEST(GraphAlgorithms, WidestPathPicksBottleneck) {
  // Two routes 0->3: via 1 (widths 5, 1) and via 2 (widths 2, 2).
  DiGraph g(4);
  const EdgeId a1 = g.add_edge(0, 1);
  const EdgeId a2 = g.add_edge(1, 3);
  const EdgeId b1 = g.add_edge(0, 2);
  const EdgeId b2 = g.add_edge(2, 3);
  std::vector<double> width(4);
  width[static_cast<std::size_t>(a1)] = 5;
  width[static_cast<std::size_t>(a2)] = 1;
  width[static_cast<std::size_t>(b1)] = 2;
  width[static_cast<std::size_t>(b2)] = 2;
  const auto result = widest_path(g, 0, 3, width);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->bottleneck, 2.0);
  EXPECT_EQ(result->path, (Path{b1, b2}));
}

TEST(GraphAlgorithms, WidestPathRespectsMinWidth) {
  DiGraph g(2);
  g.add_edge(0, 1);
  EXPECT_FALSE(widest_path(g, 0, 1, {0.5}, 0.5).has_value());
  EXPECT_TRUE(widest_path(g, 0, 1, {0.5}, 0.4).has_value());
}

TEST(GraphAlgorithms, DijkstraShortest) {
  const DiGraph g = make_ring(8);
  std::vector<double> len(static_cast<std::size_t>(g.num_edges()), 1.0);
  const auto path = dijkstra_path(g, 0, 3, len);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 3u);
  EXPECT_TRUE(path_is_valid(g, *path, 0, 3));
}

TEST(GraphAlgorithms, DijkstraImprovesTinyLabels) {
  // Lengths on the scale of the FPTAS's initial delta/cap: the direct edge
  // is found first, the two-hop route is shorter and must replace it.
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  const auto tree = dijkstra_tree(g, 0, {3e-30, 1e-30, 1e-30});
  EXPECT_DOUBLE_EQ(tree.dist[1], 2e-30);
  EXPECT_EQ(tree.parent_edge[1], 2);
}

TEST(GraphAlgorithms, DijkstraRejectsNegativeLengths) {
  DiGraph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(dijkstra_path(g, 0, 1, {-1.0}), InvalidArgument);
}

TEST(GraphAlgorithms, EdgeDisjointPathsCountEqualsDegreeOnHypercube) {
  const DiGraph g = make_hypercube(3);
  for (NodeId t = 1; t < 8; ++t) {
    const auto paths = edge_disjoint_paths(g, 0, t);
    EXPECT_EQ(paths.size(), 3u) << "t=" << t;  // Q3 is 3-edge-connected
    for (std::size_t i = 0; i < paths.size(); ++i) {
      EXPECT_TRUE(path_is_valid(g, paths[i], 0, t));
      for (std::size_t j = i + 1; j < paths.size(); ++j) {
        EXPECT_TRUE(paths_edge_disjoint(paths[i], paths[j]));
      }
    }
  }
}

TEST(GraphAlgorithms, EdgeDisjointPathsRespectsLimit) {
  const DiGraph g = make_hypercube(3);
  EXPECT_EQ(edge_disjoint_paths(g, 0, 7, 2).size(), 2u);
}

/// Unit-capacity s->t max-flow by depth-first augmentation, independent of
/// edge_disjoint_paths' BFS: flow[e] is 1 when arc e carries flow.
int unit_max_flow(const DiGraph& g, NodeId s, NodeId t) {
  std::vector<char> flow(static_cast<std::size_t>(g.num_edges()), 0);
  int value = 0;
  for (;;) {
    std::vector<char> seen(static_cast<std::size_t>(g.num_nodes()), 0);
    std::vector<EdgeId> trail;  // residual arcs taken from s
    const auto augment = [&](const auto& self, NodeId u) -> bool {
      if (u == t) return true;
      seen[static_cast<std::size_t>(u)] = 1;
      for (const EdgeId e : g.out_edges(u)) {
        const NodeId v = g.edge(e).to;
        if (flow[static_cast<std::size_t>(e)] || seen[static_cast<std::size_t>(v)]) continue;
        trail.push_back(e);
        if (self(self, v)) return true;
        trail.pop_back();
      }
      for (const EdgeId e : g.in_edges(u)) {
        const NodeId v = g.edge(e).from;
        if (!flow[static_cast<std::size_t>(e)] || seen[static_cast<std::size_t>(v)]) continue;
        trail.push_back(e);
        if (self(self, v)) return true;
        trail.pop_back();
      }
      return false;
    };
    if (!augment(augment, s)) return value;
    for (const EdgeId e : trail) flow[static_cast<std::size_t>(e)] ^= 1;
    ++value;
  }
}

TEST(GraphAlgorithms, EdgeDisjointPathsAreSimpleAndMaximal) {
  // The used-edge set of the max-flow can hold circulations; on these graphs
  // a plain walk from s once went round one (xpander(24,4), 17->7 visited
  // node 0 twice).
  Rng xp24(1), xp64(1), rr64(1);
  const std::vector<std::pair<const char*, DiGraph>> graphs = {
      {"dragonfly(5,4,1)", make_dragonfly(5, 4, 1)},
      {"xpander(24,4)", make_xpander(4, 4, xp24)},
      {"xpander(64,4)", make_xpander(4, 12, xp64)},
      {"randomregular(64,4)", make_random_regular(64, 4, rr64)},
  };
  for (const auto& [name, g] : graphs) {
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        if (s == t) continue;
        const auto paths = edge_disjoint_paths(g, s, t);
        ASSERT_EQ(static_cast<int>(paths.size()), unit_max_flow(g, s, t))
            << name << " " << s << "->" << t;
        for (std::size_t i = 0; i < paths.size(); ++i) {
          ASSERT_TRUE(path_is_valid(g, paths[i], s, t))
              << name << " " << s << "->" << t << ": "
              << path_to_string(g, paths[i]);
          for (std::size_t j = i + 1; j < paths.size(); ++j) {
            ASSERT_TRUE(paths_edge_disjoint(paths[i], paths[j]));
          }
        }
      }
    }
  }
}

TEST(GraphAlgorithms, EwspFractionsFormUnitFlow) {
  const DiGraph g = make_torus({3, 3});
  for (NodeId d = 1; d < 9; ++d) {
    const auto frac = ewsp_edge_fractions(g, 0, d);
    for (NodeId u = 0; u < 9; ++u) {
      double in = 0, out = 0;
      for (const EdgeId e : g.in_edges(u)) in += frac[static_cast<std::size_t>(e)];
      for (const EdgeId e : g.out_edges(u)) out += frac[static_cast<std::size_t>(e)];
      if (u == 0) EXPECT_NEAR(out - in, 1.0, 1e-9);
      else if (u == d) EXPECT_NEAR(in - out, 1.0, 1e-9);
      else EXPECT_NEAR(in, out, 1e-9);
    }
  }
}

TEST(GraphAlgorithms, EnumerateShortestPathsOnTorus) {
  const DiGraph g = make_torus({3, 3});
  bool truncated = true;
  const auto paths = enumerate_shortest_paths(g, 0, 4, 100, &truncated);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(paths.size(), 2u);  // (1,1) neighbor: x-then-y or y-then-x
  for (const auto& p : paths) EXPECT_EQ(p.size(), 2u);
}

TEST(GraphAlgorithms, EnumerateShortestPathsTruncates) {
  const DiGraph g = make_hypercube(4);
  bool truncated = false;
  // The antipodal pair in Q4 has 4! = 24 shortest paths.
  const auto paths = enumerate_shortest_paths(g, 0, 15, 10, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(paths.size(), 10u);
}

TEST(GraphAlgorithms, CountBoundedPathsMatchesFactorialOnHypercube) {
  const DiGraph g = make_hypercube(3);
  EXPECT_EQ(count_bounded_paths(g, 0, 7, 3, 1'000'000), 6);  // 3! shortest
  EXPECT_EQ(count_bounded_paths(g, 0, 7, 2, 1'000'000), 0);
  EXPECT_EQ(count_bounded_paths(g, 0, 7, 9, 5), 5);  // saturates at cap
}

TEST(GraphAlgorithms, DiameterAndDistanceSumThrowOnDisconnected) {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_THROW(diameter(g), InvalidArgument);
  EXPECT_THROW(total_pairwise_distance(g), InvalidArgument);
}

TEST(GraphAlgorithms, PathHelpers) {
  const DiGraph g = make_ring(5);
  std::vector<double> len(static_cast<std::size_t>(g.num_edges()), 1.0);
  const auto p = dijkstra_path(g, 0, 2, len).value();
  EXPECT_EQ(path_source(g, p), 0);
  EXPECT_EQ(path_target(g, p), 2);
  EXPECT_EQ(path_nodes(g, p).size(), 3u);
  EXPECT_EQ(path_to_string(g, p), "0>1>2");
  EXPECT_FALSE(path_is_valid(g, p, 0, 3));
  EXPECT_FALSE(path_is_valid(g, {}, 0, 2));
}

}  // namespace
}  // namespace a2a
