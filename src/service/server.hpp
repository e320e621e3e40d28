// ScheduleServer — the transport layer of the schedule service: a minimal
// HTTP/1.1 loop over a loopback TCP socket, no third-party dependencies.
//
// Endpoints:
//   GET  /schedule?<query>  synthesize/serve a schedule. The query is
//                           parse_service_request()'s vocabulary; the body
//                           of a 200 is the raw SchedBin frame, written
//                           straight from the broker's ArtifactView (the
//                           disk tier's mmap'd pages on a hit — the
//                           zero-copy path end to end). Outcome headers:
//                           X-A2A-Outcome / -Fingerprint / -Hit /
//                           -Coalesced / -Flow.
//   GET  /metrics           the metrics registry as flat JSON
//                           (obs::metrics_json(), shared with schedgen).
//   GET  /healthz           liveness: 200 "ok".
//   POST /shutdown          graceful stop; wait_shutdown() returns.
//
// Status mapping: 200 served, 400 malformed request, 404 unknown path,
// 429 miss queue full, 504 deadline shed, 500 pipeline failure.
//
// Concurrency: `threads` workers block in accept() on the shared listener
// and each runs its connection's keep-alive loop to completion; a miss
// therefore occupies its worker for up to the deadline, and the admission
// queue bounds how many may do so. Per-request tracing (`trace=1`) opens
// the process's single TraceSession if it is free — concurrent askers are
// served untraced (the X-A2A-Trace header says which happened).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace a2a::service {

class AdmissionQueue;

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back via
  /// port()).
  std::uint16_t port = 0;
  /// Connection worker threads (each handles one connection at a time).
  unsigned threads = 4;
  /// Directory for per-request Chrome traces ("" disables trace=1).
  std::string trace_dir;
};

class ScheduleServer {
 public:
  /// The admission queue must outlive the server.
  explicit ScheduleServer(AdmissionQueue* admission, ServerOptions options = {});
  ~ScheduleServer();  ///< calls stop().

  ScheduleServer(const ScheduleServer&) = delete;
  ScheduleServer& operator=(const ScheduleServer&) = delete;

  /// Binds 127.0.0.1:<port>, listens, spawns the workers. Throws
  /// InvalidArgument when the port cannot be bound.
  void start();
  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Blocks until POST /shutdown arrives or stop() is called.
  void wait_shutdown();
  /// Closes the listener and joins every worker. Idempotent.
  void stop();

 private:
  void worker_loop();
  void handle_connection(int fd);
  /// One request on an open connection; returns false when the connection
  /// should close (error, timeout, Connection: close, shutdown).
  bool handle_request(int fd);

  AdmissionQueue* admission_;
  ServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;  ///< serializes stop(); never held with the cv's.
  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_ = false;  ///< guarded by shutdown_mutex_.
};

}  // namespace a2a::service
