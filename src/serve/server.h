// The `phonolid serve` scoring daemon.
//
// A long-lived TCP server over a FrozenModel bundle (core/frozen_model.h):
//
//   accept thread ── one reader thread per connection ── bounded queue ──
//   batcher thread ── FrozenModel::score_batch as parallel_for task groups
//
// Dynamic micro-batching: the batcher pops the first queued request, waits
// up to `batch_window_ms` for co-arrivals (or until `max_batch`), and scores
// the coalesced batch as one la-kernel-backed pass.  Because every scoring
// stage is row-independent (see frozen_model.h), batching changes latency
// and throughput but never the bytes of an answer.
//
// Overload and deadlines are explicit, never silent: a full queue answers
// kOverloaded immediately; a request whose deadline lapses before its batch
// starts is shed with kDeadlineExceeded; scores arriving after a shutdown
// request get kShuttingDown.  Warm model swap (kSwap frame) loads the new
// bundle off the hot path and atomically flips a shared_ptr — in-flight
// batches finish on the generation they started with, so zero requests fail
// across a swap.
//
// Trust model: the daemon binds 127.0.0.1 only and speaks an
// unauthenticated protocol, so every local process that can open the port
// is fully trusted — including kSwap, which loads a filesystem path as the
// serving model.  Deployments that share a host with untrusted local users
// should set ServerConfig::allow_swap = false (CLI `--allow-swap 0`) or
// confine swap targets with ServerConfig::swap_root (CLI `--swap-root`).
//
// Observability: serve.* registry metrics (queue depth gauge, batch-size,
// latency, and per-phase histograms, shed/swap/error counters) flow into the
// Prometheus exporter and run reports; the kStats frame returns a JSON
// snapshot of this server's own counters (per-instance, so tests and
// bench_serve see only their server).
//
// Live observability plane (ServerConfig::admin_port, admin_http.h): an
// embedded loopback HTTP endpoint serves /metrics (live prometheus_text()),
// /healthz (readiness: accepting, not draining, queue below shed limits),
// /statusz (the kStats JSON plus admin/build versions and the slow-request
// log), and /flamez (profiler folded stacks under PHONOLID_PROFILE=cpu).
//
// Request-scoped tracing: every admitted score carries a trace id (client
// supplied via a PLSV v2 frame, or minted at admission) and per-phase
// monotonic timestamps — queue_wait (admission → batcher pop), batch_wait
// (pop → compute start), compute (score_batch), write (response encode +
// send) — recorded into serve.phase.*_ms histograms, emitted as
// flight-recorder events, and folded into a bounded worst-N slow-request
// log exposed via kStats//statusz.
#pragma once

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/frozen_model.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace phonolid::serve {

struct ServerConfig {
  /// TCP port on 127.0.0.1; 0 = kernel-assigned (read it from start()).
  int port = 0;
  /// Micro-batch size cap.
  std::size_t max_batch = 32;
  /// How long the batcher waits for co-arrivals after popping the first
  /// request of a batch (0 = score whatever is queued immediately).
  double batch_window_ms = 2.0;
  /// Bounded request queue; a score arriving at a full queue is answered
  /// kOverloaded immediately.
  std::size_t queue_depth = 256;
  /// Byte budget over queued kScore PCM payloads.  The count bound alone
  /// admits queue_depth × kMaxFrameBytes (~16 GB at the defaults) of pinned
  /// samples; a score that would push the queue past this budget is
  /// answered kOverloaded instead.
  std::size_t queue_max_bytes = 256u << 20;
  /// kSwap gate (see the trust model above): false rejects every swap
  /// frame with kBadRequest.
  bool allow_swap = true;
  /// When non-empty, swap targets must resolve inside this directory tree;
  /// anything else is rejected with kBadRequest.  Empty = any path.
  std::string swap_root;
  /// Admin HTTP plane (admin_http.h) port on 127.0.0.1: -1 disables it,
  /// 0 asks the kernel (read it back from admin_port()), >0 binds fixed.
  int admin_port = -1;
  /// Capacity of the slow-request log: the N worst-latency completed
  /// requests (by total time) kept for kStats//statusz.  0 disables it.
  std::size_t slow_log = 8;
};

class AdminHttpServer;

class ScoreServer {
 public:
  ScoreServer(std::shared_ptr<const core::FrozenModel> model,
              ServerConfig config = {});
  ~ScoreServer();

  ScoreServer(const ScoreServer&) = delete;
  ScoreServer& operator=(const ScoreServer&) = delete;

  /// Bind + listen on 127.0.0.1 and spawn the accept/batcher threads.
  /// Returns the bound port (the ephemeral one when config.port == 0).
  int start();

  /// Async-signal-safe graceful-drain trigger (SIGTERM/SIGINT handlers):
  /// sets a flag and pokes the wake pipe; the actual drain runs in wait().
  void request_shutdown() noexcept;

  /// Block until a shutdown is requested, then drain and tear down.
  void wait();

  /// Graceful drain (idempotent): stop accepting, answer everything queued,
  /// unblock and join every thread.
  void shutdown();

  [[nodiscard]] int port() const noexcept { return port_; }
  /// Bound admin HTTP port, or -1 when the admin plane is disabled.
  [[nodiscard]] int admin_port() const noexcept { return admin_port_; }
  [[nodiscard]] std::shared_ptr<const core::FrozenModel> model() const;

  /// Readiness as served by /healthz: started, accept loop alive, not
  /// draining, and the queue below both shed thresholds.  `reason` names
  /// the first failing check when not ready.
  struct HealthStatus {
    bool ready = false;
    std::string reason;
  };
  [[nodiscard]] HealthStatus health() const;

 private:
  struct Connection;
  struct Pending {
    Request request;
    std::shared_ptr<Connection> conn;
    std::chrono::steady_clock::time_point arrival;
    /// When the batcher popped this request off the queue (end of the
    /// queue_wait phase, start of batch_wait).
    std::chrono::steady_clock::time_point dequeued;
  };
  /// One completed request in the worst-N slow log (kStats//statusz).
  struct SlowRequest {
    std::uint64_t trace_id = 0;
    std::uint64_t request_id = 0;
    double total_ms = 0;
    double queue_wait_ms = 0;
    double batch_wait_ms = 0;
    double compute_ms = 0;
    double write_ms = 0;
    std::size_t batch_size = 0;
    const char* outcome = "ok";  // "ok" / "error" / "deadline"
  };

  void accept_loop();
  /// Join connection threads that finished since the last call (the reader
  /// threads park their own handles in finished_threads_ on exit).
  void reap_connection_threads();
  void connection_loop(std::shared_ptr<Connection> conn);
  void handle_request(const std::shared_ptr<Connection>& conn,
                      Request request);
  [[nodiscard]] bool swap_path_allowed(const std::string& path) const;
  void batch_loop();
  /// Pop the head of queue_ and release its byte accounting; queue_mu_
  /// must be held and queue_ non-empty.
  Pending pop_front_locked();
  void process_batch(std::vector<Pending> batch);
  void respond(const std::shared_ptr<Connection>& conn, Response response);
  /// Record a completed score's phase breakdown into the histograms, the
  /// flight recorder, and (when slow enough) the slow-request log.
  /// queue_wait is derived from the Pending itself; the later phases are
  /// passed in because only the batcher knows where compute started.
  void record_request_phases(const Pending& p, double batch_wait_ms,
                             double compute_ms, double write_ms,
                             std::size_t batch_size, const char* outcome);
  void start_admin();
  /// The kStats snapshot as a document (shared by stats_json / statusz).
  [[nodiscard]] obs::Json stats_doc() const;
  [[nodiscard]] std::string stats_json() const;
  /// stats_doc() plus admin/build version block — the /statusz body.
  [[nodiscard]] std::string statusz_json() const;

  std::shared_ptr<const core::FrozenModel> model_;
  mutable std::mutex model_mu_;
  ServerConfig config_;

  int listen_fd_ = -1;
  int port_ = 0;
  int admin_port_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> accept_alive_{false};
  std::atomic<bool> started_flag_{false};  // health() reads this lock-free
  bool started_ = false;
  std::mutex shutdown_mu_;
  bool shutdown_done_ = false;

  std::thread accept_thread_;
  std::thread batch_thread_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> conn_threads_;
  /// Exited reader threads awaiting join (guarded by conns_mu_); the accept
  /// loop reaps these each iteration so connection churn never accumulates
  /// unjoined threads.
  std::vector<std::thread> finished_threads_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  std::size_t queue_bytes_ = 0;  // guarded by queue_mu_
  bool stopping_ = false;        // guarded by queue_mu_

  // Per-instance stats for the kStats frame (registry serve.* metrics are
  // process-global and would bleed across servers in one test process).
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> sheds_overloaded_{0};
  std::atomic<std::uint64_t> sheds_deadline_{0};
  std::atomic<std::uint64_t> sheds_shutdown_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
  std::atomic<std::uint64_t> score_errors_{0};
  std::atomic<std::uint64_t> accept_errors_{0};
  std::atomic<std::uint64_t> swaps_{0};
  obs::Histogram batch_hist_;
  obs::Histogram latency_hist_;

  // Per-phase latency histograms (same per-instance rationale as above).
  obs::Histogram phase_queue_wait_hist_;
  obs::Histogram phase_batch_wait_hist_;
  obs::Histogram phase_compute_hist_;
  obs::Histogram phase_write_hist_;

  /// Source of server-minted trace ids (client-supplied ids win).  Starts
  /// at 1 so 0 always means "no trace id".
  std::atomic<std::uint64_t> next_trace_id_{1};
  std::chrono::steady_clock::time_point start_time_{};

  mutable std::mutex slow_mu_;
  std::vector<SlowRequest> slow_log_;  // guarded by slow_mu_

  std::unique_ptr<AdminHttpServer> admin_;
};

}  // namespace phonolid::serve
