// Fleischer / Garg–Könemann style FPTAS for maximum concurrent flow.
//
// Two roles in this repository (mirroring §2.3 and §5.3):
//   1. It reimplements the Karakostas/Fleischer FPTAS baseline of Fig. 7.
//   2. At large N — beyond the dense simplex — it serves as the approximate
//      master solver of the decomposed MCF pipeline (at tight epsilon), with
//      the combinatorial child splitter recovering per-commodity flows.
//
// Grouped mode exploits the paper's source-grouping insight directly: a
// phase routes one unit of demand from a source to *every* sink along the
// current shortest-path tree, so a phase costs one Dijkstra per source
// instead of one per commodity.
#pragma once

#include <vector>

#include "graph/digraph.hpp"
#include "graph/paths.hpp"
#include "mcf/concurrent_flow.hpp"

namespace a2a {

/// Phase cap of the FPTAS loops; schedule_fingerprint() feeds it.
inline constexpr long long kFleischerMaxPhases = 200'000;

struct FleischerOptions {
  double epsilon = 0.05;       ///< target (1-O(eps)) approximation.
  /// Wall-clock budget in seconds; 0 = unlimited. Checked at phase
  /// boundaries only — the congestion rescale makes the flow accumulated by
  /// *completed* phases feasible, so stopping there keeps the anytime
  /// guarantee (a weaker F, never an invalid flow). At least one phase
  /// always runs.
  double time_limit_s = 0.0;
};

/// Grouped-source concurrent flow: demands are 1 from every terminal to
/// every other terminal (or w(s,d) under a non-null demand matrix); the
/// result reports feasible per-source flows after congestion rescaling, and
/// F = achieved common rate per unit demand (sink d of source s receives
/// w(s,d)·F). A unit matrix routes identically to nullptr.
[[nodiscard]] GroupedFlowSolution fleischer_grouped(
    const DiGraph& g, const std::vector<NodeId>& terminals,
    const FleischerOptions& options = {},
    const DemandMatrix* demand = nullptr);

/// Candidate path sets for the restricted-path variant (= the pMCF of
/// §3.1.4 solved approximately): commodities[i] flows only on candidates[i].
/// `demands` carries per-commodity weights; empty means unit demand for all
/// (the pre-existing all-to-all shape). Zero-weight pairs are never added
/// by the builders, so every listed commodity moves bytes.
struct PathSet {
  std::vector<std::pair<NodeId, NodeId>> commodities;
  std::vector<std::vector<Path>> candidates;
  std::vector<double> demands;

  [[nodiscard]] double demand_of(std::size_t k) const {
    return demands.empty() ? 1.0 : demands[k];
  }
};

struct PathFlowSolution {
  double concurrent_flow = 0.0;                 ///< F per unit demand.
  std::vector<std::vector<double>> weights;     ///< [commodity][candidate].
  long long phases = 0;
  double solve_seconds = 0.0;
};

[[nodiscard]] PathFlowSolution fleischer_paths(const DiGraph& g,
                                               const PathSet& paths,
                                               const FleischerOptions& options = {});

}  // namespace a2a
