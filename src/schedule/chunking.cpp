#include "schedule/chunking.hpp"

#include <algorithm>
#include <cmath>

namespace a2a {

namespace {

/// Splits `cells` grid cells among `values` in proportion (dropping entries
/// below min_fraction). Each entry rounds to its nearest cell count and the
/// dominant entry absorbs the rounding residue, so the counts sum exactly
/// to `cells`.
std::vector<std::int64_t> snap_to_cells(const std::vector<double>& values,
                                        std::int64_t cells,
                                        const ChunkingOptions& options) {
  A2A_REQUIRE(!values.empty(), "no values to snap");
  double total = 0.0;
  for (const double v : values) {
    A2A_REQUIRE(v >= 0.0, "negative rate cannot be chunked");
    total += v;
  }
  A2A_REQUIRE(total > 0.0, "all rates are zero");

  std::vector<std::int64_t> counts(values.size(), 0);
  std::vector<double> exact(values.size(), 0.0);
  std::int64_t assigned = 0;
  std::size_t largest = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double frac = values[i] / total;
    if (frac < options.min_fraction) continue;
    exact[i] = frac * static_cast<double>(cells);
    counts[i] = std::llround(exact[i]);
    assigned += counts[i];
    if (values[i] > values[largest]) largest = i;
  }
  counts[largest] += cells - assigned;
  // On a coarse grid (a light commodity owns few cells) the others can
  // round up past the dominant's share: take the overshoot back from the
  // entries that rounding inflated most.
  while (counts[largest] <= 0) {
    std::size_t give = largest;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i == largest || counts[i] == 0) continue;
      if (give == largest || counts[i] - exact[i] > counts[give] - exact[give]) {
        give = i;
      }
    }
    A2A_ASSERT(give != largest, "chunk snapping lost its grid cells");
    --counts[give];
    ++counts[largest];
  }
  return counts;
}

}  // namespace

std::vector<std::vector<Rational>> snap_commodity_fractions(
    const std::vector<std::vector<double>>& rates,
    const std::vector<double>& demands, const ChunkingOptions& options) {
  A2A_REQUIRE(rates.size() == demands.size(), "rates/demands size mismatch");
  const Rational cell(1, options.max_denominator);
  std::vector<Rational> shares;
  shares.reserve(demands.size());
  Rational common(0);
  for (const double w : demands) {
    shares.push_back(snap_demand(w, options));
    common = Rational::gcd(common, shares.back());
  }
  // One grid shared by every commodity keeps all chunk counts integral at
  // one global chunk unit. It is no finer than 1/D: scaling k/D fractions by
  // j/D shares would put chunks on the 1/D^2 grid, D times the chunks.
  const Rational step = std::max(common * cell, cell);
  std::vector<std::vector<Rational>> out;
  out.reserve(rates.size());
  for (std::size_t c = 0; c < rates.size(); ++c) {
    const Rational cells = shares[c] / step;
    A2A_ASSERT(cells.den() == 1, "chunk step does not divide a demand share");
    std::vector<Rational>& fractions = out.emplace_back();
    fractions.reserve(rates[c].size());
    for (const std::int64_t k : snap_to_cells(rates[c], cells.num(), options)) {
      fractions.push_back(step * Rational(k));
    }
  }
  return out;
}

Rational snap_demand(double weight, const ChunkingOptions& options) {
  A2A_REQUIRE(weight > 0.0 && std::isfinite(weight),
              "demand weight must be positive to chunk");
  const std::int64_t D = options.max_denominator;
  const auto num = std::max<std::int64_t>(
      1, std::llround(weight * static_cast<double>(D)));
  return Rational(num, D);
}

Rational fractions_hcf(const std::vector<Rational>& fractions) {
  Rational h(0);
  for (const Rational& f : fractions) {
    if (f.is_zero()) continue;
    h = Rational::gcd(h, f);
  }
  A2A_REQUIRE(!h.is_zero(), "HCF of all-zero fractions");
  return h;
}

Rational fractions_hcf(const std::vector<std::vector<Rational>>& fraction_sets) {
  Rational h(0);
  for (const auto& set : fraction_sets) {
    for (const Rational& f : set) {
      if (f.is_zero()) continue;
      h = Rational::gcd(h, f);
    }
  }
  A2A_REQUIRE(!h.is_zero(), "HCF of all-zero fractions");
  return h;
}

}  // namespace a2a
