#include "serve/admin_http.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "serve/protocol.h"  // write_all

namespace phonolid::serve {

namespace {

const char* reason_phrase(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
  }
  return "Unknown";
}

std::string render(int status, const std::string& content_type,
                   const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    reason_phrase(status) + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

// Read until the end of the header block ("\r\n\r\n"), EOF, the byte
// budget, or the deadline.  Returns false when the request never completed
// (truncated / oversized / timed out) — the caller answers 400 either way.
bool read_request_head(int fd, std::string& head) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kAdminReadTimeoutMs);
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos) {
    if (head.size() > kMaxAdminRequestBytes) return false;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc == 0) return false;  // timed out: partial request
    const ssize_t got = ::read(fd, buf, sizeof buf);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return false;  // EOF (or error) before the head completed
    }
    head.append(buf, static_cast<std::size_t>(got));
  }
  return true;
}

struct AdminCounters {
  obs::Counter& http_requests;
  obs::Counter& http_bad;
  obs::Counter& http_errors;
};

AdminCounters& counters() {
  static AdminCounters c{
      obs::Metrics::counter("serve.admin.http_requests"),
      obs::Metrics::counter("serve.admin.http_bad"),
      obs::Metrics::counter("serve.admin.http_errors"),
  };
  return c;
}

}  // namespace

AdminHttpServer::~AdminHttpServer() { shutdown(); }

void AdminHttpServer::route(std::string path, Handler handler) {
  if (started_.load(std::memory_order_acquire)) {
    throw std::runtime_error("admin routes must be registered before start");
  }
  routes_[std::move(path)] = std::move(handler);
}

int AdminHttpServer::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return port_;
  if (::pipe(wake_pipe_) != 0) {
    throw std::runtime_error("admin: pipe failed");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("admin: socket failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(requested_port_));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw std::runtime_error("admin: bind to 127.0.0.1:" +
                             std::to_string(requested_port_) + " failed: " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 16) != 0) {
    throw std::runtime_error("admin: listen failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = static_cast<int>(ntohs(bound.sin_port));
  acceptor_ = std::thread([this] { accept_loop(); });
  return port_;
}

void AdminHttpServer::shutdown() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  const char byte = 'x';
  [[maybe_unused]] ssize_t rc = ::write(wake_pipe_[1], &byte, 1);
  if (acceptor_.joinable()) acceptor_.join();
  for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

void AdminHttpServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    struct pollfd pfds[2] = {};
    pfds[0].fd = listen_fd_;
    pfds[0].events = POLLIN;
    pfds[1].fd = wake_pipe_[0];
    pfds[1].events = POLLIN;
    const int rc = ::poll(pfds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[1].revents != 0) break;  // shutdown wake
    if ((pfds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;  // transient accept failure; keep serving
    // Whatever escapes a handler or the response rendering (bad_alloc while
    // building /statusz or /flamez, a non-std throw) costs this connection
    // a 500, never the acceptor thread.  Nothing has been written yet when
    // it throws: serve_connection sends its one response last.
    try {
      serve_connection(fd);
    } catch (const std::exception& e) {
      fail_connection(fd, e.what());
    } catch (...) {
      fail_connection(fd, "unknown exception");
    }
    ::close(fd);
  }
}

void AdminHttpServer::fail_connection(int fd, const char* what) noexcept {
  errors_.fetch_add(1, std::memory_order_relaxed);
  try {
    counters().http_errors.add(1);
    send_simple(fd, 500, std::string("handler failed: ") + what + "\n");
  } catch (...) {
    // Out of memory even for the 500: the close is the answer.
  }
}

void AdminHttpServer::send_simple(int fd, int status,
                                  const std::string& body) {
  const std::string wire = render(status, "text/plain; charset=utf-8", body);
  write_all(fd, wire.data(), wire.size());
}

void AdminHttpServer::serve_connection(int fd) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  counters().http_requests.add(1);

  std::string head;
  if (!read_request_head(fd, head)) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    counters().http_bad.add(1);
    send_simple(fd, 400, "bad request\n");
    return;
  }

  // Request line: METHOD SP target SP HTTP/1.x
  const std::size_t eol = head.find("\r\n");
  const std::string line = head.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1 ||
      line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    counters().http_bad.add(1);
    send_simple(fd, 400, "bad request\n");
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = target.find('?');
  if (query != std::string::npos) target.resize(query);

  if (method != "GET") {
    send_simple(fd, 405, "only GET is supported\n");
    return;
  }
  const auto it = routes_.find(target);
  if (it == routes_.end()) {
    std::string known = "no such endpoint; try:";
    for (const auto& [path, handler] : routes_) known += " " + path;
    send_simple(fd, 404, known + "\n");
    return;
  }

  const AdminResponse response = it->second();
  const std::string wire =
      render(response.status, response.content_type, response.body);
  write_all(fd, wire.data(), wire.size());
}

}  // namespace phonolid::serve
