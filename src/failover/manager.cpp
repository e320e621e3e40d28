#include "failover/manager.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "graph/algorithms.hpp"
#include "mcf/path_mcf.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "schedule/compile_path.hpp"
#include "schedule/validate.hpp"

namespace a2a {

namespace {

using Clock = std::chrono::steady_clock;

/// Memory budget of the fallback library's in-memory tier.
constexpr std::size_t kLibraryMemoryBytes = 64ULL << 20;
/// Online deadline when the caller passes none.
constexpr double kDefaultDeadlineS = 0.25;
/// Fraction of the remaining budget rung 2 (exact re-solve) may burn;
/// the rest is held back so rungs 3-4 plus validation still fit.
constexpr double kExactBudgetFraction = 0.6;
/// Fraction of the remaining budget rung 3 (FPTAS) may burn.
constexpr double kFptasBudgetFraction = 0.8;
/// FPTAS ε of the healthy baseline when FailoverOptions::exact_healthy is
/// false.
constexpr double kHealthyEpsilon = 0.02;
/// Weight below which a healthy route is considered absent when the
/// degraded reroute renormalizes (matches the LP's zero clamp).
constexpr double kMinRouteWeight = 1e-9;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Remaining-budget -> epsilon ladder for the FPTAS rung: more time buys a
/// tighter approximation; under pressure a loose epsilon still beats the
/// greedy reroute of the last rung.
double epsilon_for_budget(double remaining_s) {
  if (remaining_s >= 2.0) return 0.03;
  if (remaining_s >= 0.5) return 0.05;
  if (remaining_s >= 0.1) return 0.10;
  return 0.20;
}

}  // namespace

std::string to_string(FailoverRung rung) {
  switch (rung) {
    case FailoverRung::kPrecomputedHit:
      return "precomputed-hit";
    case FailoverRung::kDualWarmExact:
      return "dual-warm-exact";
    case FailoverRung::kFptasAnytime:
      return "fptas-anytime";
    case FailoverRung::kDegradedReroute:
      return "degraded-reroute";
  }
  return "unknown";
}

/// Everything the online rungs share about one degraded fabric: the
/// surviving graph, the healthy->degraded edge remap, and the candidate
/// PathSet in DEGRADED edge ids (healthy candidates that survive, plus a
/// shortest-path reroute for commodities that lost every candidate). Each
/// candidate remembers its healthy (commodity, path) origin so LP weights
/// solved on the healthy-shaped collapsed model can be carried over.
struct FailoverManager::DegradedView {
  FailureSignature sig;
  DiGraph degraded{0};
  std::vector<EdgeId> remap;        ///< healthy edge id -> degraded (-1 dead).
  std::vector<NodeId> survivors;
  bool reachable = false;
  PathSet paths;                    ///< degraded-id candidates per commodity.
  std::vector<int> healthy_commodity;              ///< per view commodity.
  std::vector<std::vector<int>> healthy_candidate; ///< per candidate, -1 = reroute.
  std::vector<std::vector<double>> healthy_seed;   ///< healthy weight, 0 = reroute.
};

FailoverManager::FailoverManager(DiGraph healthy, Fabric fabric,
                                 FailoverOptions options)
    : healthy_(std::move(healthy)),
      fabric_(std::move(fabric)),
      options_(std::move(options)) {
  A2A_REQUIRE(healthy_.num_nodes() >= 2, "failover needs >= 2 nodes");
  A2A_REQUIRE(is_strongly_connected(healthy_),
              "healthy topology must be strongly connected");
  obs::TraceSpan span("failover.init");
  terminals_.resize(static_cast<std::size_t>(healthy_.num_nodes()));
  for (NodeId n = 0; n < healthy_.num_nodes(); ++n) {
    terminals_[static_cast<std::size_t>(n)] = n;
  }
  healthy_paths_ = build_disjoint_path_set(healthy_, terminals_);
  std::vector<std::vector<double>> weights;
  double flow = 0.0;
  if (options_.exact_healthy) {
    const PathMcfSolution sol =
        solve_path_mcf_exact(healthy_, healthy_paths_, options_.lp,
                             &healthy_basis_, LpWarmMode::kAuto);
    weights = sol.weights;
    flow = sol.concurrent_flow;
  } else {
    // FPTAS baseline: no basis to warm from, but ctor cost stays bounded at
    // fabric sizes where the exact master LP is minutes.
    FleischerOptions fo;
    fo.epsilon = kHealthyEpsilon;
    const PathFlowSolution sol = fleischer_paths(healthy_, healthy_paths_, fo);
    weights = sol.weights;
    flow = sol.concurrent_flow;
  }
  healthy_schedule_.kind = ScheduleKind::kPathPMcf;
  healthy_schedule_.path = compile_path_schedule(healthy_, healthy_paths_,
                                                 weights, options_.chunking);
  healthy_schedule_.concurrent_flow = flow;
  healthy_schedule_.terminals = terminals_;
  healthy_schedule_.schedule_graph = healthy_;
  healthy_schedule_.notes = "failover healthy baseline";
  healthy_weights_ = std::move(weights);
  base_fingerprint_ = schedule_fingerprint(healthy_, fabric_, ToolchainOptions{});

  ScheduleCacheOptions cache;
  cache.max_memory_bytes = kLibraryMemoryBytes;
  cache.disk_dir = options_.library_dir;
  library_ = std::make_unique<ScheduleCache>(cache);
  library_->insert(failover_fingerprint(base_fingerprint_, FailureSignature{}),
                   healthy_schedule_);
}

FailoverManager::~FailoverManager() = default;

std::vector<FailureSignature> FailoverManager::enumerate_domain() const {
  return enumerate_failure_domain(healthy_, options_.domain);
}

FailoverManager::DegradedView FailoverManager::make_view(
    const FailureSignature& sig) const {
  DegradedView view;
  view.sig = sig;
  view.sig.normalize();
  view.degraded = degraded_topology(healthy_, view.sig, &view.remap);
  view.survivors = surviving_terminals(terminals_, view.sig);
  view.reachable = view.survivors.size() >= 2 &&
                   terminals_mutually_reachable(view.degraded, view.survivors);
  if (!view.reachable) return view;

  const std::vector<double> unit(
      static_cast<std::size_t>(view.degraded.num_edges()), 1.0);
  for (std::size_t k = 0; k < healthy_paths_.commodities.size(); ++k) {
    const auto [src, dst] = healthy_paths_.commodities[k];
    if (std::binary_search(view.sig.nodes.begin(), view.sig.nodes.end(), src) ||
        std::binary_search(view.sig.nodes.begin(), view.sig.nodes.end(), dst)) {
      continue;
    }
    std::vector<Path> candidates;
    std::vector<int> origin;
    std::vector<double> seed;
    for (std::size_t p = 0; p < healthy_paths_.candidates[k].size(); ++p) {
      const Path& path = healthy_paths_.candidates[k][p];
      Path remapped;
      remapped.reserve(path.size());
      bool alive = true;
      for (const EdgeId e : path) {
        const EdgeId mapped = view.remap[static_cast<std::size_t>(e)];
        if (mapped < 0) {
          alive = false;
          break;
        }
        remapped.push_back(mapped);
      }
      if (!alive) continue;
      candidates.push_back(std::move(remapped));
      origin.push_back(static_cast<int>(p));
      seed.push_back(healthy_weights_[k][p]);
    }
    if (candidates.empty()) {
      // Every healthy candidate died: reroute over the shortest surviving
      // path (reachability was checked, so one exists).
      auto rerouted = dijkstra_path(view.degraded, src, dst, unit);
      A2A_ASSERT(rerouted.has_value(), "reachable pair without a path");
      candidates.push_back(std::move(*rerouted));
      origin.push_back(-1);
      seed.push_back(0.0);
    }
    view.paths.commodities.emplace_back(src, dst);
    view.paths.candidates.push_back(std::move(candidates));
    view.healthy_commodity.push_back(static_cast<int>(k));
    view.healthy_candidate.push_back(std::move(origin));
    view.healthy_seed.push_back(std::move(seed));
  }
  return view;
}

bool FailoverManager::finish_result(const DegradedView& view,
                                    const std::vector<std::vector<double>>& weights,
                                    FailoverResult& result) const {
  // Defensive repair before compiling: clamp negatives, and give a
  // commodity whose weights all vanished (an expired solve, or the LP
  // starving a collapsed path) its shortest candidate at weight 1 — the
  // compile-side snap renormalizes per commodity anyway.
  std::vector<std::vector<double>> repaired = weights;
  for (std::size_t k = 0; k < repaired.size(); ++k) {
    double total = 0.0;
    for (double& w : repaired[k]) {
      if (w < 0.0 || !std::isfinite(w)) w = 0.0;
      total += w;
    }
    if (total <= kMinRouteWeight) {
      std::size_t best = 0;
      for (std::size_t p = 1; p < view.paths.candidates[k].size(); ++p) {
        if (view.paths.candidates[k][p].size() <
            view.paths.candidates[k][best].size()) {
          best = p;
        }
      }
      std::fill(repaired[k].begin(), repaired[k].end(), 0.0);
      repaired[k][best] = 1.0;
    }
  }
  result.schedule.kind = ScheduleKind::kPathPMcf;
  result.schedule.path =
      compile_path_schedule(view.degraded, view.paths, repaired, options_.chunking);
  result.schedule.concurrent_flow =
      1.0 / max_link_load(view.degraded, view.paths, repaired);
  result.schedule.terminals = view.survivors;
  result.schedule.schedule_graph = view.degraded;
  result.schedule.notes = "failover " + to_string(result.rung) + " for " +
                          view.sig.to_string();

  const auto validate_start = Clock::now();
  const ValidationResult check = validate_path_schedule(
      view.degraded, *result.schedule.path, view.survivors);
  result.validate_s += seconds_since(validate_start);
  result.validated = check.ok;
  if (!check.ok && !check.errors.empty()) {
    result.notes += (result.notes.empty() ? "" : "; ") + check.errors.front();
  }
  return check.ok;
}

bool FailoverManager::exact_resolve(const DegradedView& view, double budget_s,
                                    FailoverResult& result) const {
  result.rung = FailoverRung::kDualWarmExact;
  SimplexOptions lp = options_.lp;
  lp.time_limit_s = budget_s;
  if (view.sig.nodes.empty()) {
    // Link-only failure: the collapsed model has the healthy model's exact
    // shape, so the healthy optimal basis is dual feasible under the
    // capacity perturbation — re-solve dual-warm in a few pivots.
    const DiGraph collapsed = collapsed_topology(healthy_, view.sig);
    LpBasis basis = healthy_basis_;
    const PathMcfSolution sol = solve_path_mcf_budgeted(
        collapsed, healthy_paths_, lp, &basis, LpWarmMode::kDual);
    if (sol.status != LpStatus::kOptimal) return false;
    // Carry the healthy-model weights onto the surviving candidates (dead
    // candidates got starved by the collapsed capacity; whatever residue
    // the tolerance left on them is dropped with the candidate).
    std::vector<std::vector<double>> weights(view.paths.candidates.size());
    for (std::size_t c = 0; c < view.paths.candidates.size(); ++c) {
      const int hk = view.healthy_commodity[c];
      weights[c].assign(view.paths.candidates[c].size(), 0.0);
      for (std::size_t p = 0; p < weights[c].size(); ++p) {
        const int hp = view.healthy_candidate[c][p];
        if (hp >= 0) {
          weights[c][p] = sol.weights[static_cast<std::size_t>(hk)]
                                     [static_cast<std::size_t>(hp)];
        }
      }
    }
    return finish_result(view, weights, result);
  }
  // Node failures change the commodity set, so the healthy basis does not
  // transfer; solve the degraded model cold under the same budget.
  const PathMcfSolution sol =
      solve_path_mcf_budgeted(view.degraded, view.paths, lp);
  if (sol.status != LpStatus::kOptimal) return false;
  return finish_result(view, sol.weights, result);
}

FailoverResult FailoverManager::reschedule(const FailureSignature& sig,
                                           double deadline_s) {
  obs::TraceSpan span("failover.reschedule");
  A2A_COUNTER("failover.reschedules").inc();
  const auto start = Clock::now();
  const double deadline =
      deadline_s > 0.0 ? deadline_s : kDefaultDeadlineS;

  FailoverResult result;
  result.signature = sig;
  result.signature.normalize();
  span.annotate(result.signature.to_string());
  const std::string fp =
      failover_fingerprint(base_fingerprint_, result.signature);

  auto serve = [&](const char* counter) -> FailoverResult& {
    result.elapsed_s = seconds_since(start);
    obs::MetricsRegistry::global()
        .histogram("failover.time_to_valid." + std::string(counter))
        .observe_seconds(result.elapsed_s);
    A2A_HISTOGRAM("failover.time_to_valid").observe_seconds(result.elapsed_s);
    return result;
  };

  // Rung 1 — precomputed hit. Validation needs only the degraded graph and
  // the survivor list, both cheap; the candidate set is built lazily on a
  // miss so the hit path stays microseconds.
  if (auto hit = library_->lookup(fp); hit.has_value() && hit->path.has_value()) {
    const DiGraph degraded = degraded_topology(healthy_, result.signature);
    const std::vector<NodeId> survivors =
        surviving_terminals(terminals_, result.signature);
    const auto validate_start = Clock::now();
    const ValidationResult check =
        validate_path_schedule(degraded, *hit->path, survivors);
    result.validate_s = seconds_since(validate_start);
    if (check.ok) {
      result.rung = FailoverRung::kPrecomputedHit;
      result.schedule = std::move(*hit);
      result.schedule.from_cache = true;
      result.validated = true;
      A2A_COUNTER("failover.hit").inc();
      return serve("hit");
    }
    // A library entry that no longer validates (e.g. stale topology) is
    // ignored; the online ladder takes over.
    A2A_COUNTER("failover.stale_hits").inc();
  }

  const DegradedView view = make_view(result.signature);
  if (!view.reachable) {
    // No all-to-all schedule exists for this fabric state; report rather
    // than pretend (the caller must shrink the collective or wait out the
    // repair).
    result.rung = FailoverRung::kDegradedReroute;
    result.notes = view.survivors.size() < 2
                       ? "fewer than two surviving terminals"
                       : "surviving terminals disconnected";
    result.schedule.kind = ScheduleKind::kPathPMcf;
    result.schedule.terminals = view.survivors;
    result.schedule.schedule_graph = view.degraded;
    result.schedule.notes = result.notes;
    A2A_COUNTER("failover.unschedulable").inc();
    return serve("unschedulable");
  }

  // Rung 2 — deadline-bounded exact re-solve.
  {
    const double budget =
        (deadline - seconds_since(start)) * kExactBudgetFraction;
    if (budget > 1e-4 && exact_resolve(view, budget, result)) {
      library_->insert(fp, result.schedule);
      A2A_COUNTER("failover.exact").inc();
      return serve("exact");
    }
  }

  // Rung 3 — FPTAS anytime, epsilon from the remaining budget. Served only
  // when it validates; never cached (it would shadow a future exact fill).
  {
    const double remaining = deadline - seconds_since(start);
    if (remaining > 1e-4) {
      FleischerOptions fo;
      fo.epsilon = epsilon_for_budget(remaining);
      fo.time_limit_s = remaining * kFptasBudgetFraction;
      try {
        const PathFlowSolution sol =
            fleischer_paths(view.degraded, view.paths, fo);
        result.rung = FailoverRung::kFptasAnytime;
        if (finish_result(view, sol.weights, result)) {
          A2A_COUNTER("failover.fptas").inc();
          return serve("fptas");
        }
      } catch (const Error&) {
        // Fall through to the last rung.
      }
    }
  }

  // Rung 4 — degraded reroute: healthy weights on surviving routes,
  // shortest-path reroutes for orphaned commodities. Always serves; the
  // only rung allowed to return validated=false.
  result.rung = FailoverRung::kDegradedReroute;
  const bool ok = finish_result(view, view.healthy_seed, result);
  A2A_COUNTER("failover.degraded").inc();
  if (!ok) A2A_COUNTER("failover.validation_failures").inc();
  return serve("degraded");
}

PrecomputeReport FailoverManager::precompute(
    const std::vector<FailureSignature>& domain) {
  obs::TraceSpan span("failover.precompute");
  const auto start = Clock::now();
  PrecomputeReport report;
  report.attempted = domain.size();
  std::atomic<std::size_t> stored{0}, skipped{0}, failed{0};

  ThreadPool pool;
  pool.parallel_for(domain.size(), [&](std::size_t i) {
    FailureSignature sig = domain[i];
    sig.normalize();
    const DegradedView view = make_view(sig);
    if (!view.reachable) {
      skipped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    FailoverResult result;
    result.signature = sig;
    if (exact_resolve(view, options_.precompute_deadline_s, result)) {
      library_->insert(failover_fingerprint(base_fingerprint_, sig),
                       result.schedule);
      stored.fetch_add(1, std::memory_order_relaxed);
      A2A_COUNTER("failover.precomputed").inc();
    } else {
      failed.fetch_add(1, std::memory_order_relaxed);
    }
  });

  report.stored = stored.load();
  report.skipped_disconnected = skipped.load();
  report.failed = failed.load();
  report.seconds = seconds_since(start);
  return report;
}

}  // namespace a2a
