// Decomposed MCF — §3.1.2, the paper's headline scalability contribution.
//
// The O(N^3)-variable link MCF is split into
//   * a master LP on N source-grouped commodities (O(N^2) variables), and
//   * N independent child problems, one per source, run on a thread pool.
//
// Two exactness tiers per stage:
//   master: exact simplex up to a size threshold, Fleischer FPTAS at tight
//           epsilon beyond;
//   child:  the paper's child LP (eqs. 10-14), or an exact combinatorial
//           splitter (max-flow within the master's per-source flow followed
//           by flow decomposition) that avoids the LP entirely — any valid
//           per-destination split attains the same F, so this is a faithful
//           and much faster alternative (measured in the ablation bench).
#pragma once

#include "common/thread_pool.hpp"
#include "mcf/concurrent_flow.hpp"
#include "mcf/fleischer.hpp"

namespace a2a {

enum class MasterMode { kAuto, kExactLp, kFptas };
enum class ChildMode { kLp, kCombinatorial };

struct DecomposedOptions {
  MasterMode master = MasterMode::kAuto;
  ChildMode child = ChildMode::kCombinatorial;
  /// Auto mode uses the exact LP master up to this many terminals. Raised
  /// from 40 with the sparse revised simplex: the GenKautz(56, d=4) master
  /// LP solves in ~40s where the dense solver needed minutes at 40 (see
  /// BENCH_lp.json).
  int exact_master_limit = 56;
  double fptas_epsilon = 0.02;
  SimplexOptions lp;
  FleischerOptions fptas;
  /// 0 = hardware concurrency.
  unsigned threads = 0;
};

struct DecomposedTiming {
  double master_seconds = 0.0;
  double child_seconds = 0.0;  ///< wall time of the parallel child stage.
};

/// Full decomposed solve: returns per-commodity link flows at the common
/// rate F (the reported F is min(master F, weakest delivered commodity) and
/// equals the master F up to tolerance). A non-null `master_warm` seeds the
/// exact-LP master basis and receives the final one, so repeated pipeline
/// runs over the same fabric shape (cache misses, sweeps) restart
/// near-optimal. Child LPs share a shape across sources: the first child's
/// basis seeds the remaining parallel children automatically.
/// With a non-null `demand`, F is the common rate per unit demand (sink d of
/// source s receives w(s,d)·F); zero-weight sinks are dropped from their
/// source's child problem and silent sources skip the child stage entirely.
[[nodiscard]] LinkFlowSolution solve_decomposed_mcf(
    const DiGraph& g, const std::vector<NodeId>& terminals,
    const DecomposedOptions& options = {}, DecomposedTiming* timing = nullptr,
    LpBasis* master_warm = nullptr, const DemandMatrix* demand = nullptr);

}  // namespace a2a
