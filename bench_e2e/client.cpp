// A plain blocking HTTP/1.1 client: one request at a time per connection,
// keep-alive, Content-Length bodies only (all the schedule server sends).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"

namespace a2a::e2e {

namespace {

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

/// Case-insensitive "name:" prefix match on one header line.
bool header_is(std::string_view line, std::string_view name) {
  if (line.size() <= name.size() || line[name.size()] != ':') return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) !=
        std::tolower(static_cast<unsigned char>(name[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view header_value(std::string_view line, std::string_view name) {
  std::string_view v = line.substr(name.size() + 1);
  while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
  return v;
}

}  // namespace

double HttpClient::connect() {
  close();
  const double t0 = now_seconds();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string why = std::strerror(errno);
    close();
    throw std::runtime_error("connect() to 127.0.0.1:" +
                             std::to_string(port_) + " failed: " + why);
  }
  const double seconds = now_seconds() - t0;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return seconds;
}

void HttpClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpClient::get(std::string_view target, HttpResponse& out) {
  if (fd_ < 0) connect();
  std::string request;
  request.reserve(target.size() + 48);
  request.append("GET ").append(target).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
  if (!send_all(fd_, request.data(), request.size()) || !read_response(out)) {
    close();
    return false;
  }
  return true;
}

bool HttpClient::read_response(HttpResponse& out) {
  char chunk[64 * 1024];
  std::size_t header_end = std::string::npos;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  out.status = 0;
  out.hit = false;
  out.fingerprint.clear();
  out.flow.clear();
  std::size_t content_length = 0;
  bool close_after = false;
  const std::string_view head(buffer_.data(), header_end);
  std::size_t pos = 0;
  bool first = true;
  while (pos <= head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (first) {
      first = false;
      // "HTTP/1.1 200 OK"
      if (line.size() < 12 || line.substr(0, 5) != "HTTP/") return false;
      out.status = std::atoi(std::string(line.substr(9, 3)).c_str());
    } else if (header_is(line, "content-length")) {
      content_length = std::strtoull(
          std::string(header_value(line, "content-length")).c_str(), nullptr,
          10);
    } else if (header_is(line, "connection")) {
      close_after = header_value(line, "connection") == "close";
    } else if (header_is(line, "x-a2a-hit")) {
      out.hit = header_value(line, "x-a2a-hit") == "1";
    } else if (header_is(line, "x-a2a-fingerprint")) {
      out.fingerprint = header_value(line, "x-a2a-fingerprint");
    } else if (header_is(line, "x-a2a-flow")) {
      out.flow = header_value(line, "x-a2a-flow");
    }
  }
  // Body: what is already buffered, then straight into the body string.
  const std::size_t body_start = header_end + 4;
  const std::size_t buffered =
      std::min(buffer_.size() - body_start, content_length);
  out.body.assign(buffer_, body_start, buffered);
  buffer_.erase(0, body_start + buffered);
  out.body.resize(content_length);
  std::size_t have = buffered;
  while (have < content_length) {
    const ssize_t n =
        ::recv(fd_, out.body.data() + have, content_length - have, 0);
    if (n <= 0) return false;
    have += static_cast<std::size_t>(n);
  }
  if (close_after) close();
  return true;
}

}  // namespace a2a::e2e
