#include "schedule/chunking.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hpp"

namespace a2a {
namespace {

/// One commodity at unit demand: its route rates snapped to k/D fractions.
std::vector<Rational> unit_fractions(const std::vector<double>& rates,
                                     const ChunkingOptions& options = {}) {
  return snap_commodity_fractions({rates}, {1.0}, options).front();
}

TEST(Chunking, SnapSumsToOneExactly) {
  const auto fracs = unit_fractions({0.3333, 0.3333, 0.3334});
  Rational sum(0);
  for (const auto& f : fracs) sum += f;
  EXPECT_EQ(sum, Rational(1));
}

TEST(Chunking, SnapPreservesObviousRatios) {
  const auto fracs = unit_fractions({0.5, 0.25, 0.25});
  EXPECT_EQ(fracs[0], Rational(1, 2));
  EXPECT_EQ(fracs[1], Rational(1, 4));
  EXPECT_EQ(fracs[2], Rational(1, 4));
}

TEST(Chunking, SnapNormalizesArbitraryScale) {
  // MCF rates are in flow units, not fractions; snapping normalizes.
  const auto fracs = unit_fractions({2.0, 1.0, 1.0});
  EXPECT_EQ(fracs[0], Rational(1, 2));
}

TEST(Chunking, TinyWeightsDropped) {
  ChunkingOptions options;
  options.min_fraction = 1e-3;
  const auto fracs = unit_fractions({1.0, 1e-7}, options);
  EXPECT_EQ(fracs[1], Rational(0));
  EXPECT_EQ(fracs[0], Rational(1));
}

TEST(Chunking, RejectsDegenerateInput) {
  EXPECT_THROW(unit_fractions({}), InvalidArgument);
  EXPECT_THROW(unit_fractions({0.0, 0.0}), InvalidArgument);
  EXPECT_THROW(unit_fractions({-1.0, 2.0}), InvalidArgument);
}

TEST(Chunking, HcfDividesEveryFraction) {
  const auto fracs = unit_fractions({0.5, 0.3, 0.2});
  const Rational h = fractions_hcf(fracs);
  for (const auto& f : fracs) {
    if (f.is_zero()) continue;
    EXPECT_EQ((f / h).den(), 1);
  }
}

TEST(Chunking, HcfAcrossCommodities) {
  const std::vector<std::vector<Rational>> sets = {
      unit_fractions({0.5, 0.5}),
      unit_fractions({0.75, 0.25}),
  };
  const Rational h = fractions_hcf(sets);
  EXPECT_EQ(h, Rational(1, 4));
}

TEST(Chunking, ChunkCountsStayModest) {
  // The §4 lowering divides each shard into 1/HCF chunks; the fixed-grid
  // snap bounds that by max_denominator even for awkward LP outputs.
  const auto fracs =
      unit_fractions({0.123456, 0.234567, 0.345678, 0.296299});
  const Rational h = fractions_hcf(fracs);
  const Rational chunks = Rational(1) / h;
  EXPECT_EQ(chunks.den(), 1);
  EXPECT_LE(chunks.num(), 7560);
}

TEST(Chunking, UniformDemandSnapsEachCommodityAlone) {
  const std::vector<std::vector<double>> rates = {
      {0.3333, 0.3333, 0.3334}, {0.123456, 0.234567, 0.345678}, {1.0}};
  const auto sets = snap_commodity_fractions(rates, {1.0, 1.0, 1.0});
  for (std::size_t c = 0; c < rates.size(); ++c) {
    EXPECT_EQ(sets[c], unit_fractions(rates[c]));
  }
  // A uniform multiple keeps the same grid, scaled: allreduce's weight 2.
  const auto doubled = snap_commodity_fractions(rates, {2.0, 2.0, 2.0});
  for (std::size_t c = 0; c < rates.size(); ++c) {
    const auto unit = unit_fractions(rates[c]);
    for (std::size_t p = 0; p < unit.size(); ++p) {
      EXPECT_EQ(doubled[c][p], unit[p] * Rational(2));
    }
  }
}

TEST(Chunking, WeightedChunksPerCommodityAreBoundedByDemandShare) {
  // Skewed (zipf-like) demand over commodities with 1-6 routes each. Every
  // commodity's fractions must tile exactly its demand share, and the
  // global chunk unit must leave it at most D·snap_demand(w) chunks — not
  // the D^2·snap_demand(w) a 1/D^2 grid would allow.
  ChunkingOptions options;
  options.max_denominator = 24;
  Rng rng(7);
  std::vector<std::vector<double>> rates;
  std::vector<double> demands;
  for (int c = 0; c < 60; ++c) {
    std::vector<double>& r = rates.emplace_back();
    for (int p = rng.next_int(1, 7); p > 0; --p) {
      r.push_back(0.01 + rng.next_double());
    }
    demands.push_back(1.0 / std::pow(1.0 + c % 12, 1.2));
  }
  const auto sets = snap_commodity_fractions(rates, demands, options);
  const Rational unit = fractions_hcf(sets);
  for (std::size_t c = 0; c < sets.size(); ++c) {
    const Rational share = snap_demand(demands[c], options);
    Rational sum(0);
    for (const Rational& f : sets[c]) {
      EXPECT_GE(f, Rational(0));
      EXPECT_EQ((f / unit).den(), 1);
      sum += f;
    }
    EXPECT_EQ(sum, share) << "commodity " << c;
    const Rational chunks = share / unit;
    EXPECT_LE(chunks, Rational(options.max_denominator) * share)
        << "commodity " << c;
  }
}

TEST(Chunking, CoarseGridKeepsTheDominantRoute) {
  // A light commodity owns two grid cells; rounding three equal routes up
  // would hand out three. The overshoot comes back from the others and the
  // dominant route keeps a positive share.
  const auto sets =
      snap_commodity_fractions({{1.0, 1.0, 1.0}, {1.0}}, {2.0 / 360, 1.0});
  Rational sum(0);
  for (const Rational& f : sets[0]) sum += f;
  EXPECT_EQ(sum, Rational(2, 360));
  EXPECT_GT(sets[0][0], Rational(0));
  EXPECT_EQ(sets[1][0], Rational(1));
}

}  // namespace
}  // namespace a2a
