#include "failover/failure_domain.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "graph/algorithms.hpp"
#include "graph/spectral.hpp"

namespace a2a {

void FailureSignature::normalize() {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
}

std::string FailureSignature::to_string() const {
  if (empty()) return "healthy";
  std::ostringstream out;
  bool first = true;
  for (const EdgeId e : edges) {
    out << (first ? "" : "+") << 'e' << e;
    first = false;
  }
  for (const NodeId n : nodes) {
    out << (first ? "" : "+") << 'n' << n;
    first = false;
  }
  return out.str();
}

FailureSignature FailureSignature::parse(const std::string& spec,
                                         const DiGraph& g) {
  FailureSignature sig;
  if (spec == "healthy" || spec.empty()) return sig;
  std::string token;
  auto flush = [&] {
    if (token.empty()) return;
    A2A_REQUIRE(token.size() >= 2 && (token[0] == 'e' || token[0] == 'n'),
                "bad failure token '", token, "' (want e<id> or n<id>)");
    int id = -1;
    try {
      std::size_t used = 0;
      id = std::stoi(token.substr(1), &used);
      A2A_REQUIRE(used == token.size() - 1, "bad failure token '", token, "'");
    } catch (const std::logic_error&) {
      throw Error("bad failure token '" + token + "'");
    }
    if (token[0] == 'e') {
      A2A_REQUIRE(id >= 0 && id < g.num_edges(), "edge id ", id,
                  " out of range (graph has ", g.num_edges(), " edges)");
      sig.edges.push_back(id);
    } else {
      A2A_REQUIRE(id >= 0 && id < g.num_nodes(), "node id ", id,
                  " out of range (graph has ", g.num_nodes(), " nodes)");
      sig.nodes.push_back(id);
    }
    token.clear();
  };
  for (const char c : spec) {
    if (c == '+' || c == ',') {
      flush();
    } else {
      token.push_back(c);
    }
  }
  flush();
  sig.normalize();
  return sig;
}

bool operator==(const FailureSignature& a, const FailureSignature& b) {
  return a.edges == b.edges && a.nodes == b.nodes;
}

std::vector<EdgeId> failed_edge_ids(const DiGraph& g,
                                    const FailureSignature& sig) {
  std::vector<EdgeId> dead = sig.edges;
  for (const NodeId n : sig.nodes) {
    A2A_REQUIRE(n >= 0 && n < g.num_nodes(), "failed node ", n, " out of range");
    for (const EdgeId e : g.out_edges(n)) dead.push_back(e);
    for (const EdgeId e : g.in_edges(n)) dead.push_back(e);
  }
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  for (const EdgeId e : dead) {
    A2A_REQUIRE(e >= 0 && e < g.num_edges(), "failed edge ", e, " out of range");
  }
  return dead;
}

DiGraph degraded_topology(const DiGraph& g, const FailureSignature& sig,
                          std::vector<EdgeId>* old_to_new) {
  const std::vector<EdgeId> dead = failed_edge_ids(g, sig);
  if (old_to_new != nullptr) {
    // without_edges keeps surviving edges in id order, so the remap is a
    // running count of kept edges.
    old_to_new->assign(static_cast<std::size_t>(g.num_edges()), -1);
    std::size_t di = 0;
    EdgeId next = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (di < dead.size() && dead[di] == e) {
        ++di;
        continue;
      }
      (*old_to_new)[static_cast<std::size_t>(e)] = next++;
    }
  }
  return g.without_edges(dead);
}

DiGraph collapsed_topology(const DiGraph& g, const FailureSignature& sig,
                           double collapsed_capacity) {
  A2A_REQUIRE(collapsed_capacity > 0.0, "collapsed capacity must be positive");
  DiGraph out = g;
  for (const EdgeId e : failed_edge_ids(g, sig)) {
    out.set_capacity(e, collapsed_capacity);
  }
  return out;
}

std::vector<NodeId> surviving_terminals(const std::vector<NodeId>& terminals,
                                        const FailureSignature& sig) {
  std::vector<NodeId> out;
  out.reserve(terminals.size());
  for (const NodeId t : terminals) {
    if (!std::binary_search(sig.nodes.begin(), sig.nodes.end(), t)) {
      out.push_back(t);
    }
  }
  return out;
}

bool terminals_mutually_reachable(const DiGraph& g,
                                  const std::vector<NodeId>& terminals) {
  for (const NodeId s : terminals) {
    const std::vector<int> dist = bfs_distances(g, s);
    for (const NodeId t : terminals) {
      if (dist[static_cast<std::size_t>(t)] < 0) return false;
    }
  }
  return true;
}

namespace {

/// Residual spectral gap after removing `dead` — the criticality score
/// (lower residual = more critical failure). A removal that disconnects
/// the fabric is maximally critical.
double residual_gap(const DiGraph& g, const std::vector<EdgeId>& dead,
                    int iters) {
  const DiGraph degraded = g.without_edges(dead);
  if (!is_strongly_connected(degraded)) return -1.0;
  return spectral_gap(degraded, iters);
}

}  // namespace

std::vector<FailureSignature> enumerate_failure_domain(
    const DiGraph& g, const FailureDomainOptions& options) {
  std::vector<FailureSignature> domain;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    FailureSignature sig;
    sig.edges.push_back(e);
    domain.push_back(std::move(sig));
  }
  if (options.single_nodes) {
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      FailureSignature sig;
      sig.nodes.push_back(n);
      domain.push_back(std::move(sig));
    }
  }
  if (options.top_k_link_pairs > 0 && g.num_edges() >= 2) {
    // Pool: the single links whose loss hurts expansion most.
    std::vector<std::pair<double, EdgeId>> scored;
    scored.reserve(static_cast<std::size_t>(g.num_edges()));
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      scored.emplace_back(residual_gap(g, {e}, options.spectral_iters), e);
    }
    std::sort(scored.begin(), scored.end());
    const std::size_t pool = std::min<std::size_t>(
        scored.size(), static_cast<std::size_t>(std::max(options.spectral_pool, 2)));
    // Rank pairs within the pool by joint residual gap.
    struct PairScore {
      double gap;
      EdgeId a, b;
    };
    std::vector<PairScore> pairs;
    for (std::size_t i = 0; i < pool; ++i) {
      for (std::size_t j = i + 1; j < pool; ++j) {
        const EdgeId a = scored[i].second;
        const EdgeId b = scored[j].second;
        pairs.push_back({residual_gap(g, {std::min(a, b), std::max(a, b)},
                                      options.spectral_iters),
                         a, b});
      }
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const PairScore& x, const PairScore& y) { return x.gap < y.gap; });
    const std::size_t keep = std::min<std::size_t>(
        pairs.size(), static_cast<std::size_t>(options.top_k_link_pairs));
    for (std::size_t i = 0; i < keep; ++i) {
      FailureSignature sig;
      sig.edges = {pairs[i].a, pairs[i].b};
      sig.normalize();
      domain.push_back(std::move(sig));
    }
  }
  return domain;
}

namespace {

std::uint64_t fnv1a(std::string_view data, std::uint64_t seed) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::string failover_fingerprint(const std::string& base_fingerprint,
                                 const FailureSignature& sig) {
  const std::string canonical = base_fingerprint + "|failover|" + sig.to_string();
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(fnv1a(canonical, 0)),
                static_cast<unsigned long long>(fnv1a(canonical, 0x9e3779b97f4a7c15ULL)));
  return buf;
}

}  // namespace a2a
