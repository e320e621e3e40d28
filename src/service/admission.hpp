// AdmissionQueue — the deadline-and-load gate in front of the broker.
//
// Hits are served inline (the broker fast path costs a hash lookup or an
// mmap; queueing one behind a seconds-long synthesis would be absurd).
// Misses are the expensive case, and three policies apply, in order:
//
//   * bounded concurrency: at most max_pending misses are in service at
//     once; request max_pending+1 is rejected immediately (429 at the
//     transport) instead of building an unbounded backlog.
//   * upfront load-shedding: when the caller set a deadline and the EWMA of
//     recent synthesis times already exceeds it, the request is shed NOW —
//     spending seconds of LP time to blow the deadline anyway helps no one,
//     least of all the requests queued behind it.
//   * deadline-bounded synthesis: an admitted miss gets its remaining
//     budget threaded into SimplexOptions::time_limit_s, so the pipeline
//     itself gives up at the deadline (the PR 7 cooperative time-limit
//     machinery), and a coalesced wait is bounded by the same budget.
//
// Every outcome is counted (`service.*`) and latency-histogrammed.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>

#include "core/api.hpp"
#include "core/schedule_cache.hpp"

namespace a2a::service {

class ScheduleBroker;

struct AdmissionOptions {
  /// Max misses in service at once (leaders + coalesced waiters). 0 means
  /// every miss is rejected — a serve-from-cache-only mode.
  std::size_t max_pending = 64;
  /// Deadline applied when a request carries none. <= 0: no deadline.
  double default_deadline_ms = 0.0;
};

enum class ServiceOutcome {
  kServed,             ///< artifact bytes attached.
  kRejectedQueueFull,  ///< bounded miss queue at capacity (HTTP 429).
  kShedDeadline,       ///< deadline unmeetable or expired (HTTP 504).
  kFailed,             ///< pipeline/internal failure (HTTP 500).
};

[[nodiscard]] const char* to_string(ServiceOutcome outcome);

struct ServiceReply {
  ServiceOutcome outcome = ServiceOutcome::kFailed;
  ArtifactView view;        ///< valid() only when kServed.
  std::string fingerprint;  ///< always set (computed before admission).
  bool hit = false;
  bool coalesced = false;
  double total_seconds = 0.0;  ///< admission-to-reply wall time.
  std::string error;           ///< human-readable, non-served outcomes.
};

class AdmissionQueue {
 public:
  /// The broker must outlive the queue.
  explicit AdmissionQueue(ScheduleBroker* broker, AdmissionOptions options = {});

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Serves one request on the calling thread (the transport gives each
  /// connection its own thread; a miss occupies it for up to the deadline).
  /// Never throws: every failure becomes an outcome + error string.
  [[nodiscard]] ServiceReply serve(const DiGraph& topology,
                                   const Fabric& fabric,
                                   ToolchainOptions options,
                                   double deadline_ms = 0.0);

  /// Misses currently in service.
  [[nodiscard]] std::size_t pending() const;
  /// EWMA of recent leader synthesis times (0 until the first miss).
  [[nodiscard]] double ewma_synth_seconds() const;

 private:
  ScheduleBroker* broker_;
  AdmissionOptions options_;
  mutable std::mutex mutex_;
  std::size_t pending_ = 0;         ///< guarded by mutex_.
  double ewma_synth_seconds_ = 0.0; ///< guarded by mutex_.
};

}  // namespace a2a::service
