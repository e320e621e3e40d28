// bench_e2e — the end-to-end benchmark of the schedule service.
//
// One process hosts a live service (ScheduleCache -> ThreadPool ->
// ScheduleBroker -> AdmissionQueue -> ScheduleServer on an ephemeral
// loopback port, wired exactly as tools/schedserved.cpp wires them) and
// drives it over plain blocking HTTP/1.1 connections. See main.cpp for the
// workloads and the output format.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "core/api.hpp"
#include "core/schedule_cache.hpp"
#include "graph/digraph.hpp"
#include "runtime/fabric.hpp"
#include "service/admission.hpp"
#include "service/broker.hpp"
#include "service/request.hpp"
#include "service/server.hpp"

namespace a2a::e2e {

// ------------------------------------------------------------- catalog ---

/// One fabric the benchmark requests: its default request, the Fig. 1
/// branch that request must take, and how closely a repeat must reproduce
/// the default's concurrent flow F.
struct FabricCase {
  std::string name;
  service::ServiceRequest request;
  ScheduleKind kind = ScheduleKind::kPathPMcf;
  /// Relative F tolerance: 1e-9 for exact solvers, the certified epsilon
  /// for FPTAS-backed ones.
  double flow_tolerance = 1e-9;
  DiGraph topology;
  Fabric fabric;
};

/// Every fabric the benchmark uses, built once.
class Catalog {
 public:
  Catalog();
  [[nodiscard]] const FabricCase& get(std::string_view name) const;
  /// The cold-synthesis matrix: one fabric per Fig. 1 branch.
  [[nodiscard]] const std::vector<const FabricCase*>& matrix() const {
    return matrix_;
  }
  /// Bases of the warm working set (artifacts ~3.5 KB to 335 KB, all cheap
  /// to synthesize).
  [[nodiscard]] const std::vector<const FabricCase*>& warm_bases() const {
    return warm_;
  }
  /// Cheap fabrics the serve-mixed write stream misses on.
  [[nodiscard]] const std::vector<const FabricCase*>& write_fabrics() const {
    return write_;
  }
  /// The fabric of the fingerprint sent on every connection at once.
  [[nodiscard]] const FabricCase& coalesce_fabric() const {
    return get("gk27_zipf06");
  }

 private:
  std::vector<std::unique_ptr<FabricCase>> cases_;
  std::vector<const FabricCase*> matrix_, warm_, write_;
};

/// A fingerprint-distinct copy of the fabric's default request that takes
/// the same Fig. 1 branch: only a knob that branch never reads changes
/// (path_diversity_threshold on link-branch fabrics, exact_tsmcf_limit on
/// path-branch ones).
[[nodiscard]] service::ServiceRequest with_knob(const FabricCase& c, int knob);

/// "/schedule?<canonical query>".
[[nodiscard]] std::string http_target(const service::ServiceRequest& r);

[[nodiscard]] std::string fingerprint_of(const FabricCase& c,
                                         const service::ServiceRequest& r);

// ------------------------------------------------------------- samples ---

/// Raw samples; every quantile is computed from them, never from a
/// histogram.
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  void append(const Samples& other);
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double median() const;
  /// Nearest-rank quantile, q in [0, 1].
  [[nodiscard]] double quantile(double q) const;
  /// The highest of p90/p99/p99.9/p99.99 with at least ten samples beyond
  /// it (0 when even p90 has fewer).
  [[nodiscard]] double tail_level() const;
  /// {"n": .., "p50": .., "tail": "p99", "tail_value": ..} scaled by `scale`.
  [[nodiscard]] std::string json(double scale) const;

 private:
  std::vector<double> values_;
};

[[nodiscard]] double now_seconds();

/// Hands the allocator's free heap pages back to the kernel (glibc
/// malloc_trim). Called between requests, so that peak_rss_mb follows the
/// memory the service holds and needs at once: otherwise how much freed
/// memory each thread's arena keeps depends on thread scheduling, and the
/// peak varied by a fifth between runs of the same code.
void release_free_memory();

/// Relaxed-load snapshot of the process-global metrics registry, keyed by
/// name (counters/gauges: value; histograms: sum_ns).
[[nodiscard]] std::map<std::string, double> metrics_snapshot();
[[nodiscard]] double delta(const std::map<std::string, double>& before,
                           const std::map<std::string, double>& after,
                           const std::string& name);

// -------------------------------------------------------------- client ---

struct HttpResponse {
  int status = 0;
  bool hit = false;
  std::string fingerprint;
  std::string flow;  ///< X-A2A-Flow (six significant digits).
  std::string body;
};

/// A plain blocking HTTP/1.1 keep-alive client on 127.0.0.1.
class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port) : port_(port) {}
  ~HttpClient() { close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Opens a fresh connection (closing any open one); returns the seconds
  /// connect() took. Throws on failure.
  double connect();
  void close();
  /// One GET on the open connection (opening one if needed). False on a
  /// transport error; the connection is closed then.
  bool get(std::string_view target, HttpResponse& out);

 private:
  bool read_response(HttpResponse& out);

  std::uint16_t port_;
  int fd_ = -1;
  std::string buffer_;  ///< bytes received past the last response.
};

// ------------------------------------------------------------- service ---

/// The live service, constructed and destroyed in schedserved's order.
struct Service {
  Service(const std::string& disk_dir, std::size_t max_disk_bytes);
  ~Service() { server.stop(); }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  ScheduleCache cache;
  ThreadPool pool;
  service::ScheduleBroker broker;
  service::AdmissionQueue admission;
  service::ScheduleServer server;
};

// ------------------------------------------------------------- checker ---

/// Correctness of everything the service serves. Thread-safe.
///   * each distinct artifact (per fabric) is decoded once with
///     SchedBinReader, validated against its topology (demand-aware for
///     weighted workloads) and simulated;
///   * each miss is compared with the artifact the cache stored for its
///     fingerprint, whose ScheduleKind must be the fabric's Fig. 1 branch
///     and whose F must match the fabric's default request;
///   * hits are byte-compared by the caller against the first serve.
class Checker {
 public:
  /// Pins the fabric's reference (kind, F) from a direct synthesis of its
  /// default request; "" or an error.
  std::string set_reference(const FabricCase& c, const GeneratedSchedule& s);
  /// Checks a response to a miss for fabric `c` against the artifact
  /// `cache` stored for its fingerprint.
  std::string check_miss(const ScheduleCache& cache, const FabricCase& c,
                         const HttpResponse& r);
  /// Decodes, validates and simulates a served SchedBin frame, once per
  /// distinct content.
  std::string check_content(const FabricCase& c, std::string_view schedbin);
  /// Simulated algorithm bandwidth of the fabric's first validated
  /// artifact (0 when none).
  [[nodiscard]] double algbw(const std::string& fabric) const;

  static constexpr double kShardBytes = 1 << 20;

 private:
  std::string check_flow_locked(const FabricCase& c, ScheduleKind kind,
                                double flow, double tolerance);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, double> reference_flow_;  ///< by fabric.
  std::unordered_map<std::string, std::string> content_;    ///< key -> error.
  std::unordered_map<std::string, double> algbw_;           ///< by fabric.
};

// ------------------------------------------------------------ workload ---

/// A fabric's default schedule synthesized in-process before set-up; its
/// fingerprint variants form the warm working set.
struct PreparedBase {
  const FabricCase* fabric = nullptr;
  GeneratedSchedule schedule;
  std::shared_ptr<const std::string> schedbin;  ///< expected served bytes.
  std::size_t envelope_bytes = 0;
};

struct WarmEntry {
  const PreparedBase* base = nullptr;
  service::ServiceRequest request;
  std::string target;
  std::string fingerprint;
};

/// Per-thread client-side tallies, merged after a phase.
struct ClientTally {
  Samples hit_s, miss_s, connect_s;
  std::uint64_t hit_bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> missed_fingerprints;
  std::vector<std::string> errors;

  void merge(const ClientTally& other);
  void fail(std::string why);
};

struct WorkloadResult {
  ClientTally serve;                        ///< the hit phase's requests.
  ClientTally cold;                         ///< the cold misses.
  ClientTally total;                        ///< every request of the run.
  double serve_seconds = 0.0;               ///< wall time of the hit phase.
  std::map<std::string, Samples> cold_s;    ///< cold misses per fabric.
  Samples setup_s;
  std::map<std::string, double> counters;   ///< per-layer deltas.
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;
};

/// Runs one workload end to end (prepare, set up, measure) and leaves the
/// per-layer counter deltas in the result.
class Bench {
 public:
  Bench(const Catalog& catalog, Options options);
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  WorkloadResult run();
  /// The traced per-layer probes (a fresh service; run after run()).
  std::map<std::string, double> probe_layers(ClientTally& tally);
  [[nodiscard]] Checker& checker() { return checker_; }

 private:
  void prepare();
  double setup_once(int index);
  void serve_phase(double seconds, int readers, bool writer,
                   WorkloadResult& out);
  [[nodiscard]] std::vector<const FabricCase*> cold_plan() const;
  void cold_phase(const std::vector<const FabricCase*>& misses,
                  WorkloadResult& out);
  void read_stream(int stream, double deadline, ClientTally& tally);
  void write_stream(double deadline, ClientTally& tally);
  /// One request expected to miss; checked, tallied. False on failure.
  bool request_miss(const Service& service, HttpClient& client,
                    const FabricCase& c, const service::ServiceRequest& r,
                    ClientTally& tally, HttpResponse& response,
                    double& seconds);
  [[nodiscard]] std::size_t pick_warm(Rng& rng) const;
  int next_knob() { return knob_base_ + knob_counter_.fetch_add(1); }
  std::size_t disk_budget() const;

  const Catalog& catalog_;
  Options options_;
  std::vector<std::unique_ptr<PreparedBase>> bases_;
  std::vector<WarmEntry> warm_;
  /// [base][popularity rank] -> index into warm_ (ranks seed-permuted).
  std::vector<std::vector<std::size_t>> by_rank_;
  std::vector<double> zipf_cdf_;
  int knob_base_ = 0;
  std::atomic<int> knob_counter_{0};
  std::unique_ptr<Service> service_;       ///< the serving service.
  std::unique_ptr<Service> cold_service_;  ///< receives the cold misses.
  Checker checker_;
  std::vector<std::string> dirs_;

  /// The fingerprint the write stream asks every connection to send at
  /// once: generation bumps publish a new target.
  std::mutex coalesce_mutex_;
  service::ServiceRequest coalesce_request_;  ///< guarded by coalesce_mutex_.
  std::atomic<std::uint64_t> coalesce_generation_{0};
  std::size_t pending_max_ = 0;  ///< sampled by serve_phase()'s caller.
};

}  // namespace a2a::e2e
