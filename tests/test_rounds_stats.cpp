// Round partitioning (§5.5 injection-rate-control fix) and schedule
// statistics.
#include <gtest/gtest.h>

#include "graph/topologies.hpp"
#include "mcf/decomposed.hpp"
#include "mcf/timestepped.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/compile_path.hpp"
#include "schedule/rounds.hpp"
#include "schedule/stats.hpp"
#include "schedule/validate.hpp"

namespace a2a {
namespace {

/// `flow` (optional) receives the concurrent rate F of the solved flows.
PathSchedule torus_path_schedule(double* flow = nullptr) {
  const DiGraph g = make_torus({3, 3, 3});
  DecomposedOptions options;
  options.master = MasterMode::kFptas;
  options.fptas_epsilon = 0.05;
  const auto flows = solve_decomposed_mcf(g, all_nodes(g), options);
  if (flow != nullptr) *flow = flows.concurrent_flow;
  ChunkingOptions chunking;
  chunking.max_denominator = 12;
  chunking.min_fraction = 1e-3;
  return compile_path_schedule(g, paths_from_link_flows(g, flows), chunking);
}

TEST(Rounds, PartitionPreservesChunkTotals) {
  const PathSchedule sched = torus_path_schedule();
  const auto rounded = partition_into_rounds(sched, 4);
  EXPECT_EQ(rounded.num_rounds, 4);
  long long total = 0;
  for (const auto& round : rounded.rounds) total += round.total_chunks();
  EXPECT_EQ(total, sched.total_chunks());
}

TEST(Rounds, RoundsAreBalanced) {
  const PathSchedule sched = torus_path_schedule();
  const auto rounded = partition_into_rounds(sched, 3);
  long long lo = sched.total_chunks(), hi = 0;
  for (const auto& round : rounded.rounds) {
    lo = std::min(lo, round.total_chunks());
    hi = std::max(hi, round.total_chunks());
  }
  EXPECT_LE(hi - lo, static_cast<long long>(sched.entries.size()));
}

TEST(Rounds, SingleRoundIsIdentity) {
  const PathSchedule sched = torus_path_schedule();
  const auto rounded = partition_into_rounds(sched, 1);
  ASSERT_EQ(rounded.rounds.size(), 1u);
  EXPECT_EQ(rounded.rounds[0].total_chunks(), sched.total_chunks());
  EXPECT_EQ(rounded.rounds[0].entries.size(), sched.entries.size());
}

TEST(Rounds, ReducesPeakConcurrentFlows) {
  const DiGraph g = make_torus({3, 3, 3});
  const PathSchedule sched = torus_path_schedule();
  const Fabric fabric = hpc_cerio_fabric();
  const auto r1 = simulate_rounded_schedule(g, partition_into_rounds(sched, 1),
                                            1e6, 27, fabric);
  const auto r4 = simulate_rounded_schedule(g, partition_into_rounds(sched, 4),
                                            1e6, 27, fabric);
  EXPECT_LT(r4.peak_concurrent_flows, r1.peak_concurrent_flows);
  EXPECT_GT(r4.peak_concurrent_flows, 0);
}

TEST(Rounds, TradeoffVisibleUnderContention) {
  // With a harsh contention model, splitting rounds helps large transfers;
  // with contention disabled, the extra barriers only cost time.
  const DiGraph g = make_torus({3, 3, 3});
  const PathSchedule sched = torus_path_schedule();
  Fabric harsh = hpc_cerio_fabric();
  harsh.qp_knee = 64;
  harsh.qp_penalty = 0.5;
  const double big = 512e6 / 27;
  const auto one = simulate_rounded_schedule(g, partition_into_rounds(sched, 1),
                                             big, 27, harsh);
  const auto eight = simulate_rounded_schedule(
      g, partition_into_rounds(sched, 8), big, 27, harsh);
  EXPECT_LT(eight.seconds, one.seconds);

  Fabric mellow = hpc_cerio_fabric();
  mellow.qp_penalty = 0.0;
  const auto one_m = simulate_rounded_schedule(
      g, partition_into_rounds(sched, 1), big, 27, mellow);
  const auto eight_m = simulate_rounded_schedule(
      g, partition_into_rounds(sched, 8), big, 27, mellow);
  EXPECT_GE(eight_m.seconds, one_m.seconds - 1e-9);
}

TEST(Rounds, RejectsZeroRounds) {
  EXPECT_THROW(partition_into_rounds(PathSchedule{}, 0), InvalidArgument);
}

TEST(Stats, LinkScheduleScratchAndTraffic) {
  const DiGraph g = make_ring(4);
  const auto ts = solve_tsmcf_exact(g, 3, all_nodes(g));
  const LinkSchedule sched = compile_tsmcf_schedule(g, ts);
  const auto stats = analyze_link_schedule(g, sched);
  EXPECT_EQ(stats.num_steps, 3);
  EXPECT_EQ(stats.num_transfers, static_cast<long long>(sched.transfers.size()));
  // Ring-of-4 all-to-all forwards the opposite-node shards -> some scratch.
  EXPECT_GT(stats.peak_scratch_per_rank, 0.0);
  EXPECT_LE(stats.peak_scratch_per_rank, 4.0);
  EXPECT_EQ(stats.max_hops, 2);  // diameter
  double total_traffic = 0;
  for (const double t : stats.step_traffic) total_traffic += t;
  // Total shard-hops: 8 pairs at distance 1 + 4 pairs at distance 2 = 16.
  EXPECT_NEAR(total_traffic, 16.0, 0.1);
}

TEST(Stats, DirectExchangeNeedsNoScratch) {
  const DiGraph g = make_complete(4);
  LinkSchedule sched;
  sched.num_nodes = 4;
  sched.num_steps = 1;
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId d = 0; d < 4; ++d) {
      if (s != d) {
        sched.transfers.push_back(
            Transfer{Chunk{s, d, Rational(0), Rational(1)}, s, d, 1});
      }
    }
  }
  const auto stats = analyze_link_schedule(g, sched);
  EXPECT_DOUBLE_EQ(stats.peak_scratch_per_rank, 0.0);
  EXPECT_EQ(stats.max_hops, 1);
}

TEST(Stats, PathScheduleSummary) {
  const DiGraph g = make_torus({3, 3, 3});
  double flow = 0.0;
  const PathSchedule sched = torus_path_schedule(&flow);
  const auto stats = analyze_path_schedule(g, sched);
  EXPECT_EQ(stats.num_chunks, sched.total_chunks());
  EXPECT_GE(stats.avg_hops, 1.0);
  EXPECT_LE(stats.max_hops, 6);
  // The busiest link carries ~1/F of the flows the schedule was built from
  // (FPTAS quality against the optimum 1/9 is test_fleischer's job).
  ASSERT_GT(flow, 0.0);
  EXPECT_NEAR(stats.max_link_load, 1.0 / flow, 0.5);
}

}  // namespace
}  // namespace a2a
