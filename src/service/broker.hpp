// ScheduleBroker — the middle layer of the schedule service, between the
// admission queue and generate_schedule()'s fingerprint-first split.
//
// The broker owns two behaviours the one-shot pipeline never needed:
//
//   * request coalescing: concurrent requests for the same fingerprint
//     collapse into ONE synthesis. The first caller (the leader) runs the
//     LP/MCF pipeline inline; everyone else parks on a shared_future and is
//     handed the same artifact bytes. A leader failure propagates to every
//     waiter and clears the slot so a later request retries.
//   * zero-copy hits: results are served as the ScheduleCache's
//     ArtifactViews — the serialized envelope either mmap'd from its disk
//     tier or the exact heap buffer insert() wrote — so the hot path never
//     decodes a schedule, and the transport writes schedbin() bytes
//     straight out. The cache's memory tier is the only in-process copy.
//
// Thread-safe; lifetime rule: the ScheduleCache must outlive the broker.
#pragma once

#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/api.hpp"
#include "core/schedule_cache.hpp"

namespace a2a {
class ThreadPool;
}  // namespace a2a

namespace a2a::service {

struct BrokerOptions {
  /// Has no effect. Kept, like the constructor's ThreadPool parameter, only
  /// so bench_e2e keeps compiling until its next revision deletes both.
  std::size_t hot_capacity = 64;
};

struct BrokerResult {
  ArtifactView view;
  /// Served from the cache without running the pipeline.
  bool hit = false;
  /// This caller waited on another request's in-flight synthesis.
  bool coalesced = false;
  /// Pipeline wall time (leader only; 0 for hits and coalesced waiters).
  double synth_seconds = 0.0;
};

class ScheduleBroker {
 public:
  /// `cache` is required (a memory-only ScheduleCache when there is no disk
  /// tier). `pool` and `options` are unused; see BrokerOptions.
  ScheduleBroker(ScheduleCache* cache, ThreadPool* pool,
                 BrokerOptions options = {});

  ScheduleBroker(const ScheduleBroker&) = delete;
  ScheduleBroker& operator=(const ScheduleBroker&) = delete;

  /// Fast path only: the cache's zero-copy artifact lookup. Never
  /// synthesizes, never blocks on another request. nullopt on miss.
  [[nodiscard]] std::optional<ArtifactView> try_lookup(
      const std::string& fingerprint);

  /// Full path: try_lookup, then coalesced synthesis on miss. `budget_s`
  /// bounds a COALESCED waiter's wait (<= 0: wait forever); the leader's
  /// own synthesis is bounded by whatever deadline the caller threaded into
  /// options.mcf.lp.time_limit_s. Throws SolverError when the wait or the
  /// synthesis exceeds its budget, and rethrows leader failures to every
  /// waiter.
  [[nodiscard]] BrokerResult request(const std::string& fingerprint,
                                     const DiGraph& topology,
                                     const Fabric& fabric,
                                     const ToolchainOptions& options,
                                     double budget_s = 0.0);

  /// Convenience overload computing the fingerprint itself.
  [[nodiscard]] BrokerResult request(const DiGraph& topology,
                                     const Fabric& fabric,
                                     const ToolchainOptions& options = {},
                                     double budget_s = 0.0);

  /// Syntheses currently in flight (leaders running, not yet published).
  [[nodiscard]] std::size_t inflight() const;

  /// Test seam: request() calls `hook` after try_lookup missed and before
  /// it locks to claim leadership — the window in which a leader can
  /// publish and leave. Set it before any concurrent use.
  void set_claim_hook(std::function<void(const std::string&)> hook);

 private:
  ScheduleCache* cache_;
  std::function<void(const std::string&)> claim_hook_;
  mutable std::mutex mutex_;
  /// fingerprint -> the future every coalesced waiter parks on. An entry
  /// exists exactly while a leader is synthesizing. Guarded by mutex_.
  std::unordered_map<std::string, std::shared_future<ArtifactView>> inflight_;
};

}  // namespace a2a::service
