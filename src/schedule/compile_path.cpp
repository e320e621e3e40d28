#include "schedule/compile_path.hpp"

#include <map>
#include <tuple>
#include <utility>

#include "obs/trace.hpp"

namespace a2a {

namespace {

/// One route awaiting chunking: commodity endpoints, path, LP weight, and
/// the commodity's demand multiple (1 for the uniform pipeline).
struct PendingRoute {
  NodeId src;
  NodeId dst;
  const Path* path;
  double weight;
  double demand;
};

PathSchedule compile_from_fraction_sets(const DiGraph& g,
                                        const std::vector<PendingRoute>& routes,
                                        const ChunkingOptions& options) {
  // Group route weights by commodity, then snap each commodity's routes to
  // shard fractions summing to its demand share.
  std::vector<std::vector<Rational>> fraction_sets;
  std::vector<std::vector<std::size_t>> route_of;  // indices into `routes`
  std::map<std::pair<NodeId, NodeId>, std::size_t> commodity_slot;
  std::vector<std::vector<double>> weight_sets;
  std::vector<double> commodity_demand;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    const auto key = std::make_pair(routes[i].src, routes[i].dst);
    auto it = commodity_slot.find(key);
    if (it == commodity_slot.end()) {
      it = commodity_slot.emplace(key, weight_sets.size()).first;
      weight_sets.emplace_back();
      route_of.emplace_back();
      commodity_demand.push_back(routes[i].demand);
    }
    weight_sets[it->second].push_back(routes[i].weight);
    route_of[it->second].push_back(i);
  }
  {
    A2A_TRACE_SPAN("stage.chunk",
                   "snap " + std::to_string(weight_sets.size()) +
                       " commodities to unit fractions");
    fraction_sets =
        snap_commodity_fractions(weight_sets, commodity_demand, options);
  }
  const Rational unit = fractions_hcf(fraction_sets);

  PathSchedule sched;
  sched.num_nodes = g.num_nodes();
  sched.chunk_unit = unit;
  for (std::size_t c = 0; c < fraction_sets.size(); ++c) {
    for (std::size_t p = 0; p < fraction_sets[c].size(); ++p) {
      const Rational& frac = fraction_sets[c][p];
      if (frac.is_zero()) continue;
      const PendingRoute& r = routes[route_of[c][p]];
      const Rational count = frac / unit;
      A2A_ASSERT(count.den() == 1, "global HCF did not divide a fraction");
      RouteEntry entry;
      entry.src = r.src;
      entry.dst = r.dst;
      entry.path = *r.path;
      entry.weight = frac.to_double();
      entry.num_chunks = static_cast<int>(count.num());
      sched.entries.push_back(std::move(entry));
    }
  }
  return sched;
}

}  // namespace

PathSchedule compile_path_schedule(const DiGraph& g, const PathSet& paths,
                                   const std::vector<std::vector<double>>& weights,
                                   const ChunkingOptions& options) {
  A2A_REQUIRE(weights.size() == paths.candidates.size(), "weights shape mismatch");
  std::vector<PendingRoute> routes;
  for (std::size_t k = 0; k < paths.commodities.size(); ++k) {
    const auto [s, d] = paths.commodities[k];
    const double dk = paths.demand_of(k);
    if (dk <= 0.0) continue;
    for (std::size_t p = 0; p < paths.candidates[k].size(); ++p) {
      if (weights[k][p] <= 0.0) continue;
      routes.push_back(PendingRoute{s, d, &paths.candidates[k][p],
                                    weights[k][p], dk});
    }
  }
  A2A_REQUIRE(!routes.empty(), "no positive-weight routes");
  return compile_from_fraction_sets(g, routes, options);
}

PathSchedule compile_path_schedule(const DiGraph& g,
                                   const std::vector<CommodityPaths>& commodities,
                                   const ChunkingOptions& options) {
  std::vector<PendingRoute> routes;
  for (const CommodityPaths& cp : commodities) {
    if (cp.demand <= 0.0) continue;
    for (const WeightedPath& wp : cp.paths) {
      if (wp.weight <= 0.0) continue;
      routes.push_back(PendingRoute{cp.src, cp.dst, &wp.path, wp.weight,
                                    cp.demand});
    }
  }
  A2A_REQUIRE(!routes.empty(), "no positive-weight routes");
  return compile_from_fraction_sets(g, routes, options);
}

}  // namespace a2a
