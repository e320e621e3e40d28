#include "schedule/compile_link.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "collectives/demand.hpp"
#include "obs/trace.hpp"

namespace a2a {

namespace {

constexpr double kTol = 1e-9;

/// One (edge, step, amount) element of a commodity's space-time flow.
struct Segment {
  EdgeId edge;
  int step;
  double amount;
  double remaining;
};

/// A space-time path: hops with their steps, plus the carried weight.
struct SpaceTimePath {
  std::vector<std::pair<EdgeId, int>> hops;
  double weight;
};

/// Decomposes one commodity's tsMCF flow into space-time paths by FIFO-
/// matching receives to sends at every intermediate node (feasible by the
/// cumulative constraint, eq. 17) and then peeling paths off the resulting
/// segment DAG.
std::vector<SpaceTimePath> decompose_commodity(
    const DiGraph& g, NodeId s, NodeId d,
    const std::vector<std::vector<double>>& flow_by_step) {
  std::vector<Segment> segments;
  for (std::size_t t = 0; t < flow_by_step.size(); ++t) {
    for (std::size_t e = 0; e < flow_by_step[t].size(); ++e) {
      const double amount = flow_by_step[t][e];
      if (amount > kTol) {
        segments.push_back(Segment{static_cast<EdgeId>(e),
                                   static_cast<int>(t) + 1, amount, amount});
      }
    }
  }
  // successor[i] = list of (segment index, amount) the segment feeds.
  std::vector<std::vector<std::pair<int, double>>> successor(segments.size());
  // FIFO matching per intermediate node.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == s || v == d) continue;
    std::vector<int> in, out;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (g.edge(segments[i].edge).to == v) in.push_back(static_cast<int>(i));
      if (g.edge(segments[i].edge).from == v) out.push_back(static_cast<int>(i));
    }
    if (out.empty()) continue;
    auto by_step = [&](int a, int b) { return segments[static_cast<std::size_t>(a)].step < segments[static_cast<std::size_t>(b)].step; };
    std::sort(in.begin(), in.end(), by_step);
    std::sort(out.begin(), out.end(), by_step);
    std::size_t ii = 0;
    std::vector<double> in_avail(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) in_avail[i] = segments[static_cast<std::size_t>(in[i])].amount;
    for (const int oi : out) {
      double need = segments[static_cast<std::size_t>(oi)].amount;
      while (need > kTol) {
        A2A_ASSERT(ii < in.size(), "tsMCF send without matching receive at ", v);
        A2A_ASSERT(segments[static_cast<std::size_t>(in[ii])].step <
                       segments[static_cast<std::size_t>(oi)].step,
                   "tsMCF causality violated at node ", v);
        const double take = std::min(need, in_avail[ii]);
        if (take > kTol) {
          successor[static_cast<std::size_t>(in[ii])].emplace_back(oi, take);
          need -= take;
          in_avail[ii] -= take;
        }
        if (in_avail[ii] <= kTol) ++ii;
      }
    }
  }
  // Peel paths: start at segments leaving s, follow successors greedily.
  std::vector<SpaceTimePath> paths;
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (g.edge(segments[i].edge).from == s) roots.push_back(i);
  }
  std::vector<std::size_t> succ_cursor(segments.size(), 0);
  for (const std::size_t root : roots) {
    while (segments[root].remaining > kTol) {
      SpaceTimePath p;
      p.weight = segments[root].remaining;
      std::size_t at = root;
      std::vector<std::size_t> chain{root};
      std::vector<int> chain_link{-1};
      for (;;) {
        p.hops.emplace_back(segments[at].edge, segments[at].step);
        if (g.edge(segments[at].edge).to == d) break;
        // Next successor with remaining amount.
        auto& succs = successor[at];
        std::size_t& cur = succ_cursor[at];
        while (cur < succs.size() && succs[cur].second <= kTol) ++cur;
        A2A_ASSERT(cur < succs.size(), "space-time decomposition stuck");
        p.weight = std::min(p.weight, succs[cur].second);
        chain_link.push_back(static_cast<int>(cur));
        at = static_cast<std::size_t>(succs[cur].first);
        chain.push_back(at);
      }
      // Subtract the peeled weight along the chain.
      for (std::size_t i = 0; i < chain.size(); ++i) {
        segments[chain[i]].remaining -= p.weight;
        if (i > 0) {
          successor[chain[i - 1]][static_cast<std::size_t>(chain_link[i])].second -=
              p.weight;
        }
      }
      paths.push_back(std::move(p));
    }
  }
  return paths;
}

}  // namespace

LinkSchedule compile_tsmcf_schedule(const DiGraph& g, const TsMcfSolution& ts,
                                    const ChunkingOptions& options,
                                    const DemandMatrix* demand) {
  LinkSchedule sched;
  sched.num_nodes = g.num_nodes();
  sched.num_steps = ts.steps;
  A2A_TRACE_SPAN("stage.chunk", "decompose + snap " +
                                    std::to_string(ts.pairs.count()) +
                                    " commodities");
  std::vector<int> commodity;  // pair index of each decomposed commodity
  std::vector<std::vector<SpaceTimePath>> st_paths;
  std::vector<std::vector<double>> weights;
  std::vector<double> demands;
  for (int k = 0; k < ts.pairs.count(); ++k) {
    const auto [s, d] = ts.pairs.nodes(k);
    const double w = demand_weight(demand, ts.pairs, k);
    if (w <= 0.0) continue;  // zero-weight commodities move no bytes
    auto paths =
        decompose_commodity(g, s, d, ts.flow[static_cast<std::size_t>(k)]);
    if (paths.empty()) continue;
    std::vector<double>& rates = weights.emplace_back();
    for (const SpaceTimePath& p : paths) rates.push_back(p.weight);
    commodity.push_back(k);
    st_paths.push_back(std::move(paths));
    demands.push_back(w);
  }
  // Chunks tile [0, snap_demand(w_k)) per commodity.
  const auto fraction_sets = snap_commodity_fractions(weights, demands, options);
  for (std::size_t c = 0; c < commodity.size(); ++c) {
    const auto [s, d] = ts.pairs.nodes(commodity[c]);
    const auto& fractions = fraction_sets[c];
    Rational offset(0);
    for (std::size_t p = 0; p < st_paths[c].size(); ++p) {
      if (fractions[p].is_zero()) continue;
      Chunk chunk;
      chunk.src = s;
      chunk.dst = d;
      chunk.lo = offset;
      chunk.hi = offset + fractions[p];
      offset = chunk.hi;
      for (const auto& [e, step] : st_paths[c][p].hops) {
        sched.transfers.push_back(
            Transfer{chunk, g.edge(e).from, g.edge(e).to, step});
      }
    }
  }
  return sched;
}

std::vector<CommodityPaths> paths_from_link_flows(const DiGraph& g,
                                                  const LinkFlowSolution& flows,
                                                  const DemandMatrix* demand) {
  std::vector<CommodityPaths> out;
  out.reserve(static_cast<std::size_t>(flows.pairs.count()));
  for (int k = 0; k < flows.pairs.count(); ++k) {
    const auto [s, d] = flows.pairs.nodes(k);
    const double w = demand_weight(demand, flows.pairs, k);
    if (w <= 0.0) continue;  // zero-weight commodities have no routes
    CommodityPaths cp;
    cp.src = s;
    cp.dst = d;
    cp.demand = w;
    cp.paths = extract_widest_paths(g, s, d,
                                    flows.per_commodity[static_cast<std::size_t>(k)],
                                    w * flows.concurrent_flow);
    A2A_REQUIRE(!cp.paths.empty(), "no extractable path for commodity ", s,
                "->", d);
    out.push_back(std::move(cp));
  }
  return out;
}

LinkSchedule unroll_rate_schedule(const DiGraph& g,
                                  const std::vector<CommodityPaths>& commodities,
                                  const UnrollOptions& options) {
  A2A_REQUIRE(options.slots_per_link >= 1, "need >= 1 slot per link");
  LinkSchedule sched;
  sched.num_nodes = g.num_nodes();

  struct PendingChunk {
    Chunk chunk;
    const Path* path;
  };
  // Chunk every commodity, interleaving across commodities round-robin so
  // the list scheduler spreads contention evenly. A GLOBAL chunk unit keeps
  // all chunks equal-sized, so the per-step slot budget below is also a
  // per-step byte budget and the synchronized steps stay balanced.
  std::vector<std::vector<Rational>> fraction_sets;
  {
    A2A_TRACE_SPAN("stage.chunk",
                   "snap " + std::to_string(commodities.size()) +
                       " commodities to unit fractions");
    std::vector<std::vector<double>> weights(commodities.size());
    std::vector<double> demands(commodities.size());
    for (std::size_t c = 0; c < commodities.size(); ++c) {
      for (const WeightedPath& wp : commodities[c].paths) {
        weights[c].push_back(wp.weight);
      }
      demands[c] = commodities[c].demand;
    }
    // Chunks tile [0, snap_demand(demand)) per commodity.
    fraction_sets =
        snap_commodity_fractions(weights, demands, options.chunking);
  }
  const Rational unit = fractions_hcf(fraction_sets);
  std::vector<std::vector<PendingChunk>> per_commodity;
  for (std::size_t c = 0; c < commodities.size(); ++c) {
    const CommodityPaths& cp = commodities[c];
    const auto& fractions = fraction_sets[c];
    std::vector<PendingChunk> chunks;
    Rational offset(0);
    for (std::size_t p = 0; p < cp.paths.size(); ++p) {
      if (fractions[p].is_zero()) continue;
      const Rational count_r = fractions[p] / unit;  // global unit divides all
      A2A_ASSERT(count_r.den() == 1, "HCF did not divide a fraction");
      for (std::int64_t i = 0; i < count_r.num(); ++i) {
        Chunk c;
        c.src = cp.src;
        c.dst = cp.dst;
        c.lo = offset;
        c.hi = offset + unit;
        offset = c.hi;
        chunks.push_back(PendingChunk{c, &cp.paths[p].path});
      }
    }
    per_commodity.push_back(std::move(chunks));
  }

  // Earliest-fit list scheduling of chunk hops with per-(edge, step)
  // occupancy limited to slots_per_link scaled by the edge's capacity, so a
  // capacity-4 host link (Fig. 2 augmentation) legitimately carries 4 chunks
  // per step in the same wall-clock step time.
  std::vector<int> slot_budget(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    slot_budget[static_cast<std::size_t>(e)] = std::max(
        1, static_cast<int>(std::lround(g.edge(e).capacity * options.slots_per_link)));
  }
  std::vector<std::vector<int>> usage(static_cast<std::size_t>(g.num_edges()));
  auto slot_free = [&](EdgeId e, int step) {
    auto& u = usage[static_cast<std::size_t>(e)];
    if (static_cast<std::size_t>(step) >= u.size()) u.resize(static_cast<std::size_t>(step) + 1, 0);
    return u[static_cast<std::size_t>(step)] < slot_budget[static_cast<std::size_t>(e)];
  };
  int max_step = 0;
  bool progressed = true;
  for (std::size_t round = 0; progressed; ++round) {
    progressed = false;
    for (auto& chunks : per_commodity) {
      if (round >= chunks.size()) continue;
      progressed = true;
      const PendingChunk& pc = chunks[round];
      int prev = 0;
      for (const EdgeId e : *pc.path) {
        int t = prev + 1;
        while (!slot_free(e, t)) ++t;
        usage[static_cast<std::size_t>(e)][static_cast<std::size_t>(t)]++;
        sched.transfers.push_back(
            Transfer{pc.chunk, g.edge(e).from, g.edge(e).to, t});
        prev = t;
        max_step = std::max(max_step, t);
      }
    }
  }
  sched.num_steps = max_step;
  return sched;
}

}  // namespace a2a
