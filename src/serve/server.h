// The swsim serve daemon: a long-lived, multi-tenant front-end over one
// shared engine::BatchRunner.
//
// Thread architecture:
//
//   accept thread ──► session thread per connection ──► AdmissionQueue
//                                                            │
//                         N dispatcher threads ◄─────────────┘
//                         (shared BatchRunner: one thread pool,
//                          one content-addressed ResultCache)
//
// A session reads one frame at a time, answers built-ins (hello, healthz,
// metrics) inline, and funnels workload requests through the admission
// queue; the dispatcher fulfils the session's promise and the session
// writes the response frame. Because every client shares the runner's
// cache, a truth table one client already paid for is answered for the
// next client without re-solving — healthz exposes the cache and
// jobs_executed counters that prove it.
//
// Shutdown contract (docs/SERVING.md):
//   * begin_drain(): stop accepting connections, close the queue. Admitted
//     requests complete normally; new workload requests are answered with
//     retryable kDraining (+ retry_after_s). Built-ins keep working so
//     orchestrators can watch the drain.
//   * shutdown(): begin_drain, join dispatchers (backlog fully served),
//     then half-close session sockets and join sessions.
//   * run_until_shutdown(): drives the above from robust::ShutdownSignal —
//     first SIGTERM/SIGINT drains, a second force-cancels in-flight solves
//     via the process-wide cancel flag, SIGHUP reopens the request log.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/batch_runner.h"
#include "robust/status.h"
#include "serve/admission.h"
#include "serve/flight_recorder.h"
#include "serve/protocol.h"
#include "serve/slo.h"

namespace swsim::serve {

struct ServerConfig {
  // Exactly one endpoint: a Unix socket path, or a loopback TCP port.
  std::string socket_path;
  int tcp_port = 0;

  std::size_t dispatchers = 2;      // concurrent engine batches
  std::size_t queue_capacity = 64;  // admission bound (backpressure)
  std::size_t max_sessions = 64;    // concurrent connections
  double retry_after_s = 0.5;       // hint on kOverloaded / kDraining
  // Per-session read deadlines (serve/codec.h IoDeadlines): idle bounds
  // the wait for a new frame, frame bounds finishing a started one — the
  // slow-loris defence. 0 disables either.
  double idle_timeout_s = 300.0;
  double frame_timeout_s = 30.0;
  // Deadline policy: a request without deadline_s gets the default (0 =
  // none); a client-supplied deadline is capped at max (0 = uncapped).
  double default_deadline_s = 0.0;
  double max_deadline_s = 0.0;
  // Optional JSON overlay of the runtime tunables above (plus
  // queue_capacity), re-read on SIGHUP — see ServeTunables.
  std::string tunables_file;
  std::string request_log;          // JSONL request log path (optional)
  // true: install SIGSEGV/SIGABRT/SIGBUS/SIGFPE handlers that dump the
  // flight recorder to stderr before re-raising. The daemon turns this
  // on; in-process tests leave it off.
  bool arm_crash_dump = false;
  engine::EngineConfig engine;      // shared runner configuration
};

// The knobs that may change while the daemon runs (SIGHUP hot-reload from
// ServerConfig::tunables_file). Everything else — endpoint, thread counts,
// engine shape — is fixed at start().
struct ServeTunables {
  std::size_t queue_capacity = 64;
  double retry_after_s = 0.5;
  double idle_timeout_s = 300.0;
  double frame_timeout_s = 30.0;
  double default_deadline_s = 0.0;
  double max_deadline_s = 0.0;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the endpoint and starts the accept + dispatcher threads.
  robust::Status start();

  // See the shutdown contract above. All idempotent.
  void begin_drain();
  void shutdown();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  // SIGHUP semantics: reopens the request log (rotation) and re-reads the
  // tunables file, if one was configured. A malformed file is reported and
  // ignored — the daemon keeps the last good tunables.
  void reload();

  // Snapshot of the current runtime tunables (hot-reloadable knobs).
  ServeTunables tunables() const;

  // The crash-recovery scan start() ran over the spill directory (all
  // zeros when the engine has no spill_dir).
  engine::ResultCache::RecoveryReport recovery_report() const {
    return recovery_;
  }

  // Signal-driven service loop; returns the process exit code.
  int run_until_shutdown();

  // "unix:/path" or "tcp:PORT" once start() succeeded.
  std::string endpoint() const;

  const engine::BatchRunner& runner() const { return *runner_; }
  const SloTracker& slo() const { return slo_; }
  const FlightRecorder& flight_recorder() const { return flight_; }

  // Appends the flight-recorder ring to the request log (stderr when no
  // log is configured). run_until_shutdown() calls this on SIGQUIT.
  void dump_flight_recorder();

 private:
  struct Session {
    int fd = -1;
    std::thread thread;
  };

  void accept_loop();
  void dispatch_loop();
  void session_loop(std::size_t slot, int fd);
  // deadline_seconds > 0 is the remaining request budget, plumbed into the
  // engine as an absolute JobOptions::not_after. *engine_seconds (when
  // non-null) accumulates the wall time spent inside the BatchRunner so
  // the dispatcher can split engine from render time.
  Response handle_workload(const Request& request, double deadline_seconds,
                           double* engine_seconds);
  Response make_builtin_response(const Request& request);
  // probe.subscribe: acks the request, then pushes probe frames from
  // obs::ProbeHub until the request's bounds are hit, the hub drains dry
  // past the bounds, or the server drains. Returns false when the socket
  // died (the session loop then closes the connection).
  bool stream_probes(int fd, const Request& request);
  std::string healthz_payload() const;
  void log_request(const Request& request, const Response& response,
                   double wall_s);
  void observe_request(const Request& request, const Response& response,
                       double wall_s);
  // Overlays config_.tunables_file onto the current tunables (no-op when
  // unset). kInvalidConfig on parse/validation failure; tunables keep
  // their previous values in that case.
  robust::Status apply_tunables_file();

  ServerConfig config_;
  std::unique_ptr<engine::BatchRunner> runner_;
  AdmissionQueue queue_;

  mutable std::mutex tunables_mutex_;
  ServeTunables tunables_;
  engine::ResultCache::RecoveryReport recovery_;

  int listen_fd_ = -1;
  int wake_read_ = -1;   // accept-loop wake pipe (begin_drain writes)
  int wake_write_ = -1;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  bool stopped_ = false;  // shutdown() ran (main-thread only)
  double start_t_us_ = 0.0;

  std::thread accept_thread_;
  std::vector<std::thread> dispatcher_threads_;

  mutable std::mutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::size_t> free_slots_;  // finished sessions, reusable
  std::size_t active_sessions_ = 0;

  std::mutex log_mutex_;
  std::ofstream log_out_;

  // Authoritative request counters (metrics mirror them; healthz reads
  // these so it works with metrics disarmed too).
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> requests_failed_{0};
  std::atomic<std::uint64_t> rejected_overload_{0};
  std::atomic<std::uint64_t> rejected_draining_{0};
  std::atomic<std::uint64_t> rejected_deadline_{0};
  std::atomic<std::uint64_t> sessions_timed_out_{0};

  // Probe-stream accounting (healthz "probe" section; counted whether or
  // not metrics are armed).
  std::atomic<std::uint64_t> probe_streams_{0};
  std::atomic<std::uint64_t> probe_frames_{0};
  std::atomic<std::uint64_t> probe_dropped_{0};
  std::atomic<std::uint64_t> probe_active_{0};

  // Per-tenant SLO accounting (healthz "slo" section) and the bounded
  // ring of recent request lines for postmortems.
  SloTracker slo_;
  FlightRecorder flight_;
};

}  // namespace swsim::serve
