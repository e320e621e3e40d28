#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/admission.hpp"
#include "service/request.hpp"

namespace a2a::service {

namespace {

constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 1 * 1024 * 1024;
/// Keep-alive idle timeout in seconds; also bounds how long stop() waits
/// for a worker parked in recv().
constexpr long kRecvTimeoutS = 5;

/// Serializes per-request tracing: the process has ONE TraceSession, so the
/// first trace=1 request in flight gets it and concurrent askers are served
/// untraced.
std::mutex g_trace_mutex;

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 504: return "Gateway Timeout";
  }
  return "Unknown";
}

struct Response {
  int status = 500;
  std::string content_type = "text/plain";
  /// Extra headers, each a full "Name: value" line.
  std::vector<std::string> headers;
  /// Exactly one of `body` (owned) or `payload` (borrowed — an
  /// ArtifactView's bytes, alive in the caller's scope) carries the body.
  std::string body;
  std::string_view payload;
  bool close = false;

  [[nodiscard]] std::string_view content() const {
    return payload.empty() ? std::string_view(body) : payload;
  }
};

bool send_response(int fd, const Response& r) {
  std::ostringstream head;
  head << "HTTP/1.1 " << r.status << ' ' << status_text(r.status) << "\r\n"
       << "Content-Type: " << r.content_type << "\r\n"
       << "Content-Length: " << r.content().size() << "\r\n"
       << "Connection: " << (r.close ? "close" : "keep-alive") << "\r\n";
  for (const std::string& h : r.headers) head << h << "\r\n";
  head << "\r\n";
  const std::string header_bytes = head.str();
  if (!send_all(fd, header_bytes.data(), header_bytes.size())) return false;
  // The payload is written straight from the view's storage — on a disk-tier
  // hit these are the artifact's mmap'd pages, never copied into a response
  // buffer (the zero-copy serving path the broker exists for).
  return send_all(fd, r.content().data(), r.content().size());
}

std::string format_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

ScheduleServer::ScheduleServer(AdmissionQueue* admission, ServerOptions options)
    : admission_(admission), options_(options) {
  A2A_ASSERT(admission_ != nullptr, "ScheduleServer needs an admission queue");
}

ScheduleServer::~ScheduleServer() { stop(); }

void ScheduleServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  A2A_REQUIRE(listen_fd_ >= 0, "socket() failed: ", std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw InvalidArgument("cannot bind 127.0.0.1:" +
                          std::to_string(options_.port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  if (options_.threads == 0) options_.threads = 1;
  workers_.reserve(options_.threads);
  for (unsigned i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ScheduleServer::worker_loop() {
  // Workers share the listener: whichever is free accepts the next
  // connection and owns it until it closes (keep-alive included).
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener shut down.
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    A2A_COUNTER("service.connections").inc();
    handle_connection(fd);
    ::close(fd);
  }
}

void ScheduleServer::handle_connection(int fd) {
  timeval timeout{};
  timeout.tv_sec = kRecvTimeoutS;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (!handle_request(fd)) return;
  }
}

bool ScheduleServer::handle_request(int fd) {
  // Read until the end of the header block.
  std::string buf;
  std::size_t header_end = std::string::npos;
  char chunk[4096];
  while (header_end == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;  // peer closed, timeout, or error.
    buf.append(chunk, static_cast<std::size_t>(n));
    if (buf.size() > kMaxHeaderBytes) return false;
    header_end = buf.find("\r\n\r\n");
  }

  // Request line + the two headers this server acts on.
  const std::string_view head = std::string_view(buf).substr(0, header_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line = head.substr(
      0, line_end == std::string_view::npos ? head.size() : line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target =
      request_line.substr(sp1 + 1, sp2 - sp1 - 1);

  std::size_t content_length = 0;
  bool connection_close = false;
  {
    std::istringstream headers{std::string(head.substr(
        line_end == std::string_view::npos ? head.size() : line_end))};
    std::string line;
    while (std::getline(headers, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      std::string value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.erase(0, 1);
      if (name == "content-length") {
        try {
          content_length = static_cast<std::size_t>(std::stoull(value));
        } catch (const std::exception&) {
          return false;
        }
      } else if (name == "connection") {
        for (char& c : value) c = static_cast<char>(std::tolower(c));
        connection_close = value == "close";
      }
    }
  }

  // Drain (and ignore) the body — every endpoint is query-addressed.
  if (content_length > kMaxBodyBytes) return false;
  std::size_t have = buf.size() - header_end - 4;
  while (have < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    have += static_cast<std::size_t>(n);
  }

  const std::size_t qmark = target.find('?');
  const std::string_view path = target.substr(0, qmark);
  const std::string_view query =
      qmark == std::string_view::npos ? std::string_view{}
                                      : target.substr(qmark + 1);

  Response response;
  response.close = connection_close;
  // `reply` lives until the response is sent: it owns the ArtifactView the
  // payload view points into.
  ServiceReply reply;

  if (method != "GET" && method != "POST") {
    response.status = 400;
    response.body = "unsupported method\n";
  } else if (path == "/healthz") {
    response.status = 200;
    response.body = "ok\n";
  } else if (path == "/metrics") {
    response.status = 200;
    response.content_type = "application/json";
    response.body = obs::metrics_json() + "\n";
  } else if (path == "/shutdown") {
    response.status = 200;
    response.body = "shutting down\n";
    response.close = true;
    {
      std::lock_guard lock(shutdown_mutex_);
      shutdown_ = true;
    }
    shutdown_cv_.notify_all();
  } else if (path == "/schedule") {
    try {
      const ServiceRequest request = parse_service_request(query);
      const DiGraph topology = build_topology(request.spec);
      const Fabric fabric = build_fabric(request.fabric);

      // Best-effort per-request tracing: first asker in flight wins the
      // process's one session; everyone else proceeds untraced.
      std::unique_lock trace_lock(g_trace_mutex, std::defer_lock);
      std::optional<obs::TraceSession> session;
      const bool want_trace = request.trace && !options_.trace_dir.empty();
      if (want_trace && trace_lock.try_lock()) session.emplace();

      reply = admission_->serve(topology, fabric, request.options,
                                request.deadline_ms);

      if (session) {
        session->stop();
        std::filesystem::create_directories(options_.trace_dir);
        const std::string trace_path =
            options_.trace_dir + "/trace-" + reply.fingerprint + ".json";
        std::ofstream out(trace_path, std::ios::binary);
        out << session->chrome_json();
        response.headers.push_back("X-A2A-Trace: " + trace_path);
      } else if (want_trace) {
        response.headers.emplace_back("X-A2A-Trace: busy");
      }

      response.headers.push_back("X-A2A-Outcome: " +
                                 std::string(to_string(reply.outcome)));
      response.headers.push_back("X-A2A-Fingerprint: " + reply.fingerprint);
      switch (reply.outcome) {
        case ServiceOutcome::kServed:
          response.status = 200;
          response.content_type = "application/octet-stream";
          response.headers.emplace_back(reply.hit ? "X-A2A-Hit: 1"
                                                  : "X-A2A-Hit: 0");
          response.headers.emplace_back(reply.coalesced
                                            ? "X-A2A-Coalesced: 1"
                                            : "X-A2A-Coalesced: 0");
          response.headers.push_back(
              "X-A2A-Flow: " + format_double(reply.view.concurrent_flow));
          response.payload = reply.view.schedbin();
          break;
        case ServiceOutcome::kRejectedQueueFull:
          response.status = 429;
          response.body = reply.error + "\n";
          break;
        case ServiceOutcome::kShedDeadline:
          response.status = 504;
          response.body = reply.error + "\n";
          break;
        case ServiceOutcome::kFailed:
          response.status = 500;
          response.body = reply.error + "\n";
          break;
      }
    } catch (const InvalidArgument& e) {
      response.status = 400;
      response.body = std::string(e.what()) + "\n";
    } catch (const std::exception& e) {
      response.status = 500;
      response.body = std::string(e.what()) + "\n";
    }
  } else {
    response.status = 404;
    response.body = "unknown path\n";
  }

  if (!send_response(fd, response)) return false;
  return !response.close;
}

void ScheduleServer::wait_shutdown() {
  std::unique_lock lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_ || stopping_.load(std::memory_order_relaxed);
  });
}

void ScheduleServer::stop() {
  std::lock_guard stop_lock(stop_mutex_);
  if (listen_fd_ < 0 && workers_.empty()) return;
  stopping_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard lock(shutdown_mutex_);
    shutdown_ = true;
  }
  shutdown_cv_.notify_all();
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  // Wake any worker still parked in accept(): a shutdown listener returns
  // EINVAL on Linux, but poke once per worker anyway — a stray connect is
  // harmless and makes the join prompt on platforms where it does not.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    (void)::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    ::close(fd);
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace a2a::service
