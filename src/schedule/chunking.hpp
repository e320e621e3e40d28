// Chunking — the §4 lowering step.
//
// The MCF solvers emit fractional rates; runtimes move discrete chunks. We
// snap rates to rationals with bounded denominators, normalize them to
// per-shard fractions, and size the base chunk as the highest common factor
// of all fractions so every route/step carries an integer chunk count.
#pragma once

#include <vector>

#include "common/rational.hpp"

namespace a2a {

struct ChunkingOptions {
  /// Largest denominator D allowed when snapping an LP rate to a rational.
  /// This bounds the worst-case chunks-per-shard (and hence the QP count
  /// §5.5 worries about): a commodity of demand weight w gets at most
  /// D·snap_demand(w) chunks, non-uniform demand included (see
  /// snap_commodity_fractions). Exact-LP weights are typically small
  /// fractions that snap exactly, while FPTAS weights carry noise and land
  /// on the grid. 360 = 2^3*3^2*5 is rich in divisors.
  std::int64_t max_denominator = 360;
  /// Chunks smaller than this fraction of a shard are merged away.
  double min_fraction = 1e-4;
};

/// Snaps a per-commodity demand weight onto the k/D grid, clamped to at
/// least one grid cell so any positive weight moves at least one chunk.
/// Weight 1 snaps to exactly Rational(1), which keeps the uniform pipeline
/// bit-identical.
[[nodiscard]] Rational snap_demand(double weight,
                                   const ChunkingOptions& options = {});

/// The chunking rule every schedule compiler applies. `rates[c]` are the
/// non-negative route rates of commodity c (any scale) and `demands[c]` its
/// demand weight. Returns per-route shard fractions in input order:
/// commodity c's sum exactly to snap_demand(demands[c]) and are whole
/// multiples of one shared step,
///   step = max(gcd_c snap_demand(demands[c]) / D, 1/D),
/// so commodity c gets at most D·snap_demand(demands[c]) chunks however
/// skewed the demand. Rates below min_fraction of their commodity's total
/// snap to 0. Under uniform demand the step is 1/D, so every commodity's
/// fractions are k/D summing to 1.
[[nodiscard]] std::vector<std::vector<Rational>> snap_commodity_fractions(
    const std::vector<std::vector<double>>& rates,
    const std::vector<double>& demands, const ChunkingOptions& options = {});

/// Highest common factor of the non-zero fractions (the base chunk size).
[[nodiscard]] Rational fractions_hcf(const std::vector<Rational>& fractions);

/// HCF across many commodities' fraction vectors.
[[nodiscard]] Rational fractions_hcf(
    const std::vector<std::vector<Rational>>& fraction_sets);

}  // namespace a2a
