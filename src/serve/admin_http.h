// Minimal embedded HTTP/1.1 admin plane for the scoring daemon.
//
// One acceptor thread on 127.0.0.1, serial request handling, GET-only,
// dependency-free.  The surface is read-only diagnostics — /metrics,
// /healthz, /statusz, /flamez — wired up by ScoreServer (server.cpp); this
// class only owns the socket plumbing and the request/response framing.
//
// Trust model matches the PLSV swap gate: loopback-only bind, no
// authentication — any local process is trusted.  Robustness contract
// (tests/test_serve.cpp): a malformed, oversized, or truncated request gets
// exactly one `400 Bad Request` (405/404 for wrong method/path) followed by
// connection close; a handler that throws (anything, bad_alloc included)
// gets a counted `500` and a close; the acceptor never crashes and never
// wedges on a slow or silent client (bounded read size + poll timeout).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

namespace phonolid::serve {

/// Version of the admin HTTP surface (paths + response shapes).  Bumped
/// when an endpoint is added, removed, or changes meaning; printed by
/// `phonolid version` and reported in /statusz.
inline constexpr std::uint32_t kAdminHttpVersion = 1;

/// Upper bound on one admin request (request line + headers).  Admin
/// requests are tiny GETs; anything larger is garbage and gets a 400.
inline constexpr std::size_t kMaxAdminRequestBytes = 8192;

/// How long a connection may sit without completing its request before the
/// acceptor gives up on it (400 + close).  Keeps a silent client from
/// wedging the serial admin loop.
inline constexpr int kAdminReadTimeoutMs = 2000;

struct AdminResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class AdminHttpServer {
 public:
  using Handler = std::function<AdminResponse()>;

  /// port 0 asks the kernel for an ephemeral port (see port() after start).
  explicit AdminHttpServer(int port) : requested_port_(port) {}
  ~AdminHttpServer();

  AdminHttpServer(const AdminHttpServer&) = delete;
  AdminHttpServer& operator=(const AdminHttpServer&) = delete;

  /// Register a handler for an exact path (query strings are stripped
  /// before lookup).  Must be called before start(); the route table is
  /// read-only once the acceptor thread runs.
  void route(std::string path, Handler handler);

  /// Bind 127.0.0.1, start the acceptor thread, return the bound port.
  /// Throws std::runtime_error when the socket cannot be set up.
  int start();

  /// Stop the acceptor and close the listening socket.  Idempotent; also
  /// run by the destructor.
  void shutdown();

  [[nodiscard]] int port() const noexcept { return port_; }

  /// Admin requests answered / rejected since start.  Deliberately separate
  /// from the PLSV `serve.requests` counters so scraping the daemon never
  /// perturbs the scoring metrics it reports.
  [[nodiscard]] std::uint64_t requests() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bad_requests() const noexcept {
    return bad_requests_.load(std::memory_order_relaxed);
  }
  /// Requests answered 500 because a handler or the rendering threw.
  [[nodiscard]] std::uint64_t errors() const noexcept {
    return errors_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop();
  void serve_connection(int fd);
  void fail_connection(int fd, const char* what) noexcept;
  void send_simple(int fd, int status, const std::string& body);

  int requested_port_ = 0;
  int port_ = -1;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::map<std::string, Handler> routes_;
  std::thread acceptor_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::atomic<std::uint64_t> errors_{0};
};

}  // namespace phonolid::serve
