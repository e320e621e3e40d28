// FailoverManager — deadline-bounded online re-scheduling.
//
// The manager owns a healthy fabric's schedule, its optimal LP basis, and a
// library of precomputed fallback schedules (a ScheduleCache, so fallbacks
// share the content-addressed disk tier and survive restarts). When a
// failure arrives, reschedule(signature, deadline) walks a ladder of
// strategies ordered by quality, spending the remaining wall-clock budget
// on each rung and falling through when it expires or fails:
//
//   1. precomputed hit   — library lookup by (healthy fingerprint,
//                          signature); microseconds when the disk tier's
//                          mmap'd SchedBin bytes are warm.
//   2. dual-warm exact   — link failures keep the pMCF LP's shape (capacity
//                          collapse), so the healthy optimal basis is still
//                          dual feasible and a dual-simplex re-solve under
//                          SimplexOptions::time_limit_s is typically a few
//                          pivots. Node failures re-solve cold on the
//                          degraded fabric, same budget. Only an OPTIMAL
//                          outcome is served (and added to the library).
//   3. FPTAS anytime     — Fleischer on the degraded candidate set, epsilon
//                          picked from the remaining budget, phase-boundary
//                          cutoff as a backstop. Approximate but feasible.
//   4. degraded reroute  — the healthy schedule with dead routes dropped
//                          and emptied commodities rerouted over shortest
//                          surviving paths. Never optimal, always instant.
//
// EVERY rung's output is validated against the degraded topology before it
// is served; a rung whose product fails validation falls through, so a
// served-and-validated=false result can only come from the last rung (and
// bumps failover.validation_failures).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/schedule_cache.hpp"
#include "failover/failure_domain.hpp"
#include "lp/simplex.hpp"
#include "mcf/fleischer.hpp"
#include "runtime/fabric.hpp"

namespace a2a {

enum class FailoverRung {
  kPrecomputedHit,
  kDualWarmExact,
  kFptasAnytime,
  kDegradedReroute,
};

[[nodiscard]] std::string to_string(FailoverRung rung);

struct FailoverOptions {
  /// Directory of the fallback library's disk tier ("" = in-memory only).
  std::string library_dir;
  /// Budget per signature during offline precompute — generous, this is
  /// the half that is allowed to be slow.
  double precompute_deadline_s = 30.0;
  /// Solve the healthy baseline with the exact pMCF LP (keeps the optimal
  /// basis for dual-warm online re-solves). false switches the baseline to
  /// the FPTAS at ε = 0.02 — the right trade at fabric sizes where the
  /// exact master LP is minutes (Fig. 9's N=81): rung 2 then re-solves cold
  /// within its budget instead of dual-warm.
  bool exact_healthy = true;
  ChunkingOptions chunking{.max_denominator = 24, .min_fraction = 1e-3};
  FailureDomainOptions domain;
  SimplexOptions lp;
};

struct FailoverResult {
  FailureSignature signature;
  FailoverRung rung = FailoverRung::kDegradedReroute;
  GeneratedSchedule schedule;
  /// True when the served schedule passed validate_path_schedule against
  /// the degraded topology. Only the last rung may serve with false.
  bool validated = false;
  double elapsed_s = 0.0;   ///< total time to the served schedule.
  double validate_s = 0.0;  ///< portion spent in the final validation.
  std::string notes;
};

struct PrecomputeReport {
  std::size_t attempted = 0;
  std::size_t stored = 0;
  /// Signatures skipped because the surviving terminals are not mutually
  /// reachable (no all-to-all schedule exists on that degraded fabric).
  std::size_t skipped_disconnected = 0;
  std::size_t failed = 0;
  double seconds = 0.0;
};

class FailoverManager {
 public:
  /// Solves the healthy fabric exactly (pMCF on link-disjoint candidates)
  /// and seeds the library with it. Requires >= 2 nodes and a strongly
  /// connected topology.
  FailoverManager(DiGraph healthy, Fabric fabric, FailoverOptions options = {});
  ~FailoverManager();

  FailoverManager(const FailoverManager&) = delete;
  FailoverManager& operator=(const FailoverManager&) = delete;

  [[nodiscard]] const DiGraph& healthy_topology() const { return healthy_; }
  [[nodiscard]] const GeneratedSchedule& healthy_schedule() const {
    return healthy_schedule_;
  }
  [[nodiscard]] const std::string& base_fingerprint() const {
    return base_fingerprint_;
  }
  [[nodiscard]] ScheduleCache& library() { return *library_; }

  /// enumerate_failure_domain on the healthy topology with this manager's
  /// domain options.
  [[nodiscard]] std::vector<FailureSignature> enumerate_domain() const;

  /// Batch-synthesizes fallback schedules for `domain` across the thread
  /// pool (dual-warm from the healthy basis where the LP shape allows) and
  /// stores the validated results in the library.
  PrecomputeReport precompute(const std::vector<FailureSignature>& domain);

  /// The online entry point: best valid schedule for the degraded fabric
  /// within `deadline_s` (<= 0 uses a 0.25 s default). The
  /// deadline may be overshot by at most the final validation pass (the
  /// contract bench_failover enforces).
  [[nodiscard]] FailoverResult reschedule(const FailureSignature& sig,
                                          double deadline_s = 0.0);

 private:
  struct DegradedView;  ///< degraded graph + remap + candidates (internal).

  [[nodiscard]] DegradedView make_view(const FailureSignature& sig) const;
  /// Compile weights over the view's candidates, validate, and fill
  /// `result`. Returns validation success.
  bool finish_result(const DegradedView& view,
                     const std::vector<std::vector<double>>& weights,
                     FailoverResult& result) const;
  /// Rung 2 body, shared by reschedule() and precompute().
  [[nodiscard]] bool exact_resolve(const DegradedView& view, double budget_s,
                                   FailoverResult& result) const;

  DiGraph healthy_;
  Fabric fabric_;
  FailoverOptions options_;
  std::vector<NodeId> terminals_;
  PathSet healthy_paths_;
  std::vector<std::vector<double>> healthy_weights_;
  LpBasis healthy_basis_;
  GeneratedSchedule healthy_schedule_;
  std::string base_fingerprint_;
  std::unique_ptr<ScheduleCache> library_;
};

}  // namespace a2a
