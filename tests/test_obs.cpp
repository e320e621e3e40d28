// Observability layer tests: metric correctness under concurrent hammering,
// span nesting and thread attribution, Chrome-trace JSON well-formedness,
// the disabled fast paths, and metric-count determinism across repeat
// identical LP solves.
//
// The registry is process-global and other suites in this binary may bump
// metrics, so every assertion here works on deltas between snapshots (or on
// metrics with names only this file uses), never on absolute values.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/topologies.hpp"
#include "mcf/concurrent_flow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace a2a {
namespace {

using obs::MetricKind;
using obs::MetricSample;
using obs::MetricsRegistry;
using obs::TraceEvent;
using obs::TraceSession;
using obs::TraceSpan;

std::map<std::string, std::int64_t> snapshot_values() {
  std::map<std::string, std::int64_t> out;
  for (const MetricSample& s : MetricsRegistry::global().snapshot()) {
    out[s.name] = s.value;
  }
  return out;
}

TEST(Metrics, CounterConcurrentHammering) {
  obs::Counter& counter = MetricsRegistry::global().counter("test_obs.hammer");
  const std::uint64_t before = counter.value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value() - before,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, GaugeConcurrentAddSubBalances) {
  obs::Gauge& gauge = MetricsRegistry::global().gauge("test_obs.gauge");
  const std::int64_t before = gauge.value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) {
        gauge.add(3);
        gauge.sub(3);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(gauge.value(), before);
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  obs::Histogram& h = MetricsRegistry::global().histogram("test_obs.hist");
  h.reset();
  // 2^i ns lands in bucket i ([2^i, 2^(i+1)) by the bit-scan rule); 0 and 1
  // both land in bucket 0.
  h.observe_ns(0);
  h.observe_ns(1);
  h.observe_ns(2);
  h.observe_ns(1024);
  h.observe_ns((1ULL << 40));  // beyond the last bound: absorbed by bucket 31
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.bucket(obs::Histogram::kBuckets - 1), 1u);
  // Quantiles are bucket upper bounds: the median observation lives in
  // bucket 1 (value 2), so p50 reports that bucket's bound.
  EXPECT_EQ(h.quantile_ns(0.5), obs::Histogram::bucket_bound_ns(1));
  EXPECT_EQ(h.quantile_ns(1.0),
            obs::Histogram::bucket_bound_ns(obs::Histogram::kBuckets - 1));
}

TEST(Metrics, HistogramConcurrentCountsAreExact) {
  obs::Histogram& h =
      MetricsRegistry::global().histogram("test_obs.hist_concurrent");
  h.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe_ns(static_cast<std::uint64_t>(t) * 1000 + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) bucket_total += h.bucket(b);
  EXPECT_EQ(bucket_total, h.count());
}

TEST(Metrics, RegistryReturnsStableReferencesAndChecksKinds) {
  obs::Counter& a = MetricsRegistry::global().counter("test_obs.stable");
  obs::Counter& b = MetricsRegistry::global().counter("test_obs.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(MetricsRegistry::global().gauge("test_obs.stable"),
               InternalError);
}

TEST(Metrics, RuntimeDisableStopsUpdatesAndKeepsValues) {
  obs::Counter& counter =
      MetricsRegistry::global().counter("test_obs.disable");
  counter.add(7);
  const std::uint64_t before = counter.value();
  obs::set_metrics_enabled(false);
  counter.add(100);
  EXPECT_EQ(counter.value(), before);  // muted, not cleared
  obs::set_metrics_enabled(true);
  counter.add(1);
  EXPECT_EQ(counter.value(), before + 1);
}

TEST(Metrics, ToJsonIsWellFormedFlatObject) {
  MetricsRegistry::global().counter("test_obs.json").add(3);
  MetricsRegistry::global().histogram("test_obs.json_hist").observe_ns(500);
  const std::string json = MetricsRegistry::global().to_json();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.find_last_not_of('\n')], '}');
  EXPECT_NE(json.find("\"test_obs.json\":"), std::string::npos);
  EXPECT_NE(json.find("\"test_obs.json_hist.count\":"), std::string::npos);
  EXPECT_NE(json.find("\"test_obs.json_hist.p99_ns\":"), std::string::npos);
  // Structural sanity without a JSON parser: balanced braces, no raw
  // control characters.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  for (const char c : json) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20) << (int)c;
  }
}

TEST(Trace, SpanNestingDepthsAndOrdering) {
  TraceSession session;
  {
    TraceSpan outer("test_obs.outer");
    {
      TraceSpan inner("test_obs.inner", "detail");
      obs::trace_instant("test_obs.mark");
    }
  }
  session.stop();
  const std::vector<TraceEvent> events = session.events();
  ASSERT_EQ(events.size(), 3u);
  // Sorted (tid, start, dur desc): outer encloses inner encloses the mark.
  EXPECT_STREQ(events[0].name, "test_obs.outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_STREQ(events[1].name, "test_obs.inner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[1].args, "detail");
  EXPECT_STREQ(events[2].name, "test_obs.mark");
  EXPECT_TRUE(events[2].instant);
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_GE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);
}

TEST(Trace, ThreadAttribution) {
  TraceSession session;
  {
    TraceSpan main_span("test_obs.main_thread");
    std::thread worker([] { TraceSpan s("test_obs.worker_thread"); });
    worker.join();
  }
  session.stop();
  std::uint32_t main_tid = 0, worker_tid = 0;
  bool saw_main = false, saw_worker = false;
  for (const TraceEvent& ev : session.events()) {
    if (std::string(ev.name) == "test_obs.main_thread") {
      main_tid = ev.tid;
      saw_main = true;
    }
    if (std::string(ev.name) == "test_obs.worker_thread") {
      worker_tid = ev.tid;
      saw_worker = true;
    }
  }
  ASSERT_TRUE(saw_main);
  ASSERT_TRUE(saw_worker);
  EXPECT_NE(main_tid, worker_tid);
}

TEST(Trace, AnnotateAppendsWithSeparator) {
  TraceSession session;
  {
    TraceSpan span("test_obs.annotated");
    span.annotate("first");
    span.annotate("second");
  }
  session.stop();
  const auto events = session.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].args, "first; second");
}

TEST(Trace, ChromeJsonWellFormed) {
  TraceSession session;
  {
    TraceSpan span("test_obs.chrome", "quote\" backslash\\ newline\n tab\t");
    obs::trace_instant("test_obs.chrome_mark");
  }
  session.stop();
  const std::string json = session.chrome_json();
  EXPECT_EQ(json.rfind("{\n\"traceEvents\": [", 0), 0u);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  // The hostile annotation must come out escaped, never as raw bytes.
  EXPECT_NE(json.find("quote\\\" backslash\\\\ newline\\n tab\\t"),
            std::string::npos);
  for (const char c : json) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20) << (int)c;
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Trace, NoSessionMeansNoRecording) {
  ASSERT_FALSE(obs::tracing_enabled());
  { TraceSpan span("test_obs.unrecorded"); }  // must be a cheap no-op
  TraceSession session;
  session.stop();
  for (const TraceEvent& ev : session.events()) {
    EXPECT_STRNE(ev.name, "test_obs.unrecorded");
  }
}

TEST(Trace, SessionClearsPriorEvents) {
  {
    TraceSession first;
    TraceSpan span("test_obs.first_session");
  }
  TraceSession second;
  { TraceSpan span("test_obs.second_session"); }
  second.stop();
  const auto events = second.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test_obs.second_session");
}

TEST(Obs, LpMetricDeltasAreDeterministicAcrossIdenticalSolves) {
  const DiGraph g = make_generalized_kautz(8, 4);
  const LpModel model = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  (void)solve_lp(model);  // settle one-time registrations

  const auto delta_of_run = [&] {
    const auto before = snapshot_values();
    (void)solve_lp(model);
    const auto after = snapshot_values();
    std::map<std::string, std::int64_t> delta;
    for (const auto& [name, value] : after) {
      // Only the deterministic lp.* counters: histograms and wall-clock
      // metrics vary run to run by construction.
      if (name.rfind("lp.", 0) != 0) continue;
      if (name.find("solve.seconds") != std::string::npos) continue;
      const auto it = before.find(name);
      delta[name] = value - (it == before.end() ? 0 : it->second);
    }
    return delta;
  };
  const auto first = delta_of_run();
  const auto second = delta_of_run();
  EXPECT_EQ(first, second);
  EXPECT_GT(first.at("lp.solves"), 0);
  EXPECT_GT(first.at("lp.iterations"), 0);
}

TEST(Obs, SolveStatsMatchGlobalCounterDeltas) {
  const DiGraph g = make_generalized_kautz(8, 4);
  const LpModel model = build_link_mcf_model(g, TerminalPairs(all_nodes(g)));
  const auto before = snapshot_values();
  const LpSolution sol = solve_lp(model);
  const auto after = snapshot_values();
  const auto delta = [&](const char* name) {
    const auto b = before.find(name);
    return after.at(name) - (b == before.end() ? 0 : b->second);
  };
  EXPECT_EQ(delta("lp.solves"), 1);
  EXPECT_EQ(delta("lp.iterations"), sol.stats.iterations);
  EXPECT_EQ(delta("lp.refactorizations"), sol.stats.refactorizations);
  EXPECT_EQ(delta("lp.ft_updates"), sol.stats.ft_updates);
  EXPECT_EQ(sol.iterations, sol.stats.iterations);
  EXPECT_EQ(sol.stats.primal_iterations + sol.stats.dual_iterations,
            sol.stats.iterations);
}

}  // namespace
}  // namespace a2a
