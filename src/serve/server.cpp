#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/validator.h"
#include "obs/obs.h"
#include "obs/physics.h"
#include "robust/shutdown.h"
#include "serve/codec.h"
#include "serve/version.h"

namespace swsim::serve {

namespace {

// Serve-layer metrics, mirrored from the server's authoritative atomics
// (leaky holder, same pattern as the scheduler's).
struct ServeMetrics {
  obs::Counter& requests =
      obs::MetricsRegistry::global().counter("serve.requests");
  obs::Counter& failed =
      obs::MetricsRegistry::global().counter("serve.requests_failed");
  obs::Counter& rejected_overload =
      obs::MetricsRegistry::global().counter("serve.rejected_overload");
  obs::Counter& rejected_draining =
      obs::MetricsRegistry::global().counter("serve.rejected_draining");
  obs::Counter& rejected_deadline =
      obs::MetricsRegistry::global().counter("serve.rejected_deadline");
  obs::Counter& sessions_timed_out =
      obs::MetricsRegistry::global().counter("serve.sessions_timed_out");
  obs::Histogram& request_seconds =
      obs::MetricsRegistry::global().histogram("serve.request_seconds");
  obs::Gauge& queue_depth =
      obs::MetricsRegistry::global().gauge("serve.queue_depth");
  obs::Gauge& sessions = obs::MetricsRegistry::global().gauge("serve.sessions");
  obs::Counter& probe_streams =
      obs::MetricsRegistry::global().counter("serve.probe_streams");
  obs::Counter& probe_frames =
      obs::MetricsRegistry::global().counter("serve.probe_frames");
  obs::Counter& probe_dropped =
      obs::MetricsRegistry::global().counter("serve.probe_dropped");
  obs::Gauge& probe_active =
      obs::MetricsRegistry::global().gauge("serve.probe_active");
};

ServeMetrics& serve_metrics() {
  static ServeMetrics* m = new ServeMetrics();
  return *m;
}

std::string errno_status_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      queue_(config_.queue_capacity == 0 ? 1 : config_.queue_capacity) {
  if (config_.dispatchers == 0) config_.dispatchers = 1;
  if (config_.max_sessions == 0) config_.max_sessions = 1;
  tunables_.queue_capacity =
      config_.queue_capacity == 0 ? 1 : config_.queue_capacity;
  tunables_.retry_after_s = config_.retry_after_s;
  tunables_.idle_timeout_s = config_.idle_timeout_s;
  tunables_.frame_timeout_s = config_.frame_timeout_s;
  tunables_.default_deadline_s = config_.default_deadline_s;
  tunables_.max_deadline_s = config_.max_deadline_s;
}

ServeTunables Server::tunables() const {
  std::lock_guard<std::mutex> lock(tunables_mutex_);
  return tunables_;
}

robust::Status Server::apply_tunables_file() {
  using robust::Status;
  using robust::StatusCode;
  if (config_.tunables_file.empty()) return Status::ok();
  std::ifstream in(config_.tunables_file);
  if (!in) {
    return Status::error(StatusCode::kIoError,
                         "cannot open tunables file '" + config_.tunables_file +
                             "'",
                         "serve reload");
  }
  // One `key = value` per line, '#' comments — deliberately not JSON so an
  // operator can edit it with sed mid-incident. The whole file must parse
  // before anything is applied: a reload is all-or-nothing.
  ServeTunables next = tunables();
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto bad = [&](const std::string& why) {
      return Status::error(StatusCode::kInvalidConfig,
                           config_.tunables_file + ":" +
                               std::to_string(lineno) + ": " + why,
                           "serve reload");
    };
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) return bad("expected key = value");
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    char* end = nullptr;
    const double num = std::strtod(value.c_str(), &end);
    // strtod also reads "nan", "inf" and overflows such as "1e400" (inf);
    // none of them is a setting.
    if (end == value.c_str() || *end != '\0' || !std::isfinite(num)) {
      return bad("'" + key + "' needs a finite number, got '" + value + "'");
    }
    if (key == "queue_capacity") {
      // Whole and at most 2^53, so the size_t conversion is exact.
      if (num < 1.0 || num > 9007199254740992.0 || num != std::floor(num)) {
        return bad("queue_capacity must be an integer in [1, 2^53]");
      }
      next.queue_capacity = static_cast<std::size_t>(num);
    } else if (key == "retry_after_s") {
      if (num < 0.0) return bad("retry_after_s must be >= 0");
      next.retry_after_s = num;
    } else if (key == "idle_timeout_s") {
      if (num < 0.0) return bad("idle_timeout_s must be >= 0");
      next.idle_timeout_s = num;
    } else if (key == "frame_timeout_s") {
      if (num < 0.0) return bad("frame_timeout_s must be >= 0");
      next.frame_timeout_s = num;
    } else if (key == "default_deadline_s") {
      if (num < 0.0) return bad("default_deadline_s must be >= 0");
      next.default_deadline_s = num;
    } else if (key == "max_deadline_s") {
      if (num < 0.0) return bad("max_deadline_s must be >= 0");
      next.max_deadline_s = num;
    } else {
      return bad("unknown tunable '" + key + "'");
    }
  }
  {
    std::lock_guard<std::mutex> lock(tunables_mutex_);
    tunables_ = next;
  }
  queue_.set_capacity(next.queue_capacity);
  auto& elog = obs::EventLog::global();
  if (elog.enabled(obs::LogLevel::kInfo)) {
    elog.event(obs::LogLevel::kInfo, "serve_tunables_applied")
        .uint("queue_capacity", next.queue_capacity)
        .emit();
  }
  return Status::ok();
}

Server::~Server() {
  if (started_.load(std::memory_order_acquire)) shutdown();
  if (listen_fd_ != -1) ::close(listen_fd_);
  if (wake_read_ != -1) ::close(wake_read_);
  if (wake_write_ != -1) ::close(wake_write_);
}

std::string Server::endpoint() const {
  if (!config_.socket_path.empty()) return "unix:" + config_.socket_path;
  return "tcp:" + std::to_string(config_.tcp_port);
}

robust::Status Server::start() {
  using robust::Status;
  using robust::StatusCode;
  const bool unix_ep = !config_.socket_path.empty();
  const bool tcp_ep = config_.tcp_port > 0;
  if (unix_ep == tcp_ep) {
    return Status::error(StatusCode::kInvalidConfig,
                         "exactly one endpoint required: a Unix socket path "
                         "or a TCP port",
                         "serve");
  }
  if (config_.tcp_port > 65535) {
    return Status::error(StatusCode::kInvalidConfig,
                         "TCP port " + std::to_string(config_.tcp_port) +
                             " is out of range (1-65535)",
                         "serve");
  }

  if (unix_ep) {
    sockaddr_un addr{};
    if (config_.socket_path.size() >= sizeof addr.sun_path) {
      return Status::error(StatusCode::kInvalidConfig,
                           "socket path too long (max " +
                               std::to_string(sizeof addr.sun_path - 1) +
                               " bytes)",
                           "serve");
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::error(StatusCode::kIoError,
                           errno_status_message("socket"), "serve");
    }
    // A stale socket file from a dead daemon would make bind fail; remove
    // it (a live daemon holding the path keeps its bound inode anyway).
    std::error_code ec;
    std::filesystem::remove(config_.socket_path, ec);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      return Status::error(StatusCode::kIoError, errno_status_message("bind"),
                           "serve " + endpoint());
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::error(StatusCode::kIoError,
                           errno_status_message("socket"), "serve");
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    // Loopback only: the daemon has no authentication; remote access is a
    // deliberate non-goal (front it with a tunnel if needed).
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      return Status::error(StatusCode::kIoError, errno_status_message("bind"),
                           "serve " + endpoint());
    }
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::error(StatusCode::kIoError, errno_status_message("listen"),
                         "serve " + endpoint());
  }

  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    return Status::error(StatusCode::kIoError, errno_status_message("pipe"),
                         "serve");
  }
  wake_read_ = fds[0];
  wake_write_ = fds[1];

  if (!config_.request_log.empty()) {
    std::lock_guard<std::mutex> lock(log_mutex_);
    log_out_.open(config_.request_log, std::ios::app);
    if (!log_out_) {
      return Status::error(StatusCode::kIoError,
                           "cannot open request log '" + config_.request_log +
                               "'",
                           "serve");
    }
  }

  runner_ = std::make_unique<engine::BatchRunner>(config_.engine);
  // Crash-safe startup: a previous daemon killed mid-spill leaves partial
  // tmp files and possibly torn .swc entries behind. Quarantine/remove
  // them now, before any request can load one.
  if (!config_.engine.spill_dir.empty()) {
    recovery_ = runner_->cache().recover_spill_dir();
  }
  // A broken tunables file at startup is a hard error (fail fast); on
  // SIGHUP the same failure keeps the previous values instead.
  if (Status s = apply_tunables_file(); !s.is_ok()) return s;
  if (config_.arm_crash_dump) flight_.arm_crash_dump(2);
  start_t_us_ = obs::now_us();
  started_.store(true, std::memory_order_release);

  dispatcher_threads_.reserve(config_.dispatchers);
  for (std::size_t i = 0; i < config_.dispatchers; ++i) {
    dispatcher_threads_.emplace_back([this] { dispatch_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Status::ok();
}

void Server::accept_loop() {
  while (true) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_read_, POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // begin_drain woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    if (active_sessions_ >= config_.max_sessions) {
      // Connection-level backpressure: same retryable contract as a full
      // queue, answered before a session thread is spent on it.
      Response resp;
      resp.status = robust::Status::error(
          robust::StatusCode::kOverloaded,
          "session limit reached (" + std::to_string(config_.max_sessions) +
              ")",
          "serve " + endpoint());
      resp.retry_after_s = tunables().retry_after_s;
      std::string err;
      write_frame(fd, serialize_response(resp), &err);
      ::close(fd);
      rejected_overload_.fetch_add(1, std::memory_order_relaxed);
      serve_metrics().rejected_overload.add();
      continue;
    }
    // Reuse a finished session's slot when one is free (joining its dead
    // thread first) so a chaos storm of short connections cannot grow an
    // unbounded vector of joinable-but-finished threads.
    Session* raw = nullptr;
    std::size_t slot = 0;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      raw = sessions_[slot].get();
      if (raw->thread.joinable()) raw->thread.join();
      raw->fd = fd;
    } else {
      auto session = std::make_unique<Session>();
      session->fd = fd;
      raw = session.get();
      slot = sessions_.size();
      sessions_.push_back(std::move(session));
    }
    ++active_sessions_;
    serve_metrics().sessions.set(static_cast<std::int64_t>(active_sessions_));
    raw->thread = std::thread([this, slot, fd] { session_loop(slot, fd); });
  }
}

void Server::session_loop(std::size_t slot, int fd) {
  std::string payload;
  std::string error;
  while (true) {
    const ServeTunables tun = tunables();
    const ReadResult r =
        read_frame(fd, &payload, &error,
                   IoDeadlines{tun.idle_timeout_s, tun.frame_timeout_s});
    if (r == ReadResult::kTimeout) {
      // Idle past the budget, or a slow-loris trickle: reclaim the thread.
      // The peer sees a plain close — the same outcome as a crash, which
      // a robust client must already handle.
      sessions_timed_out_.fetch_add(1, std::memory_order_relaxed);
      serve_metrics().sessions_timed_out.add();
      break;
    }
    if (r != ReadResult::kFrame) break;  // EOF / torn frame: drop session

    const double t0 = obs::now_us();
    Request request;
    Response response;
    const robust::Status parsed = parse_request_text(payload, &request);
    if (parsed.is_ok() && request.type == RequestType::kProbeSubscribe) {
      // A subscription turns the session into a push stream; it does its
      // own accounting (observe/log fire when the stream ends) and then
      // hands the socket back for the next request.
      if (!stream_probes(fd, request)) break;
      continue;
    }
    // Deadline granted at admission (after defaulting/capping); > 0 makes
    // the response's timing block report budget consumption.
    double granted_deadline_s = 0.0;
    {
      // The session-side span covers the whole exchange — admission wait
      // included — and continues the client's trace when the request
      // carries a trace_id (the flow step links this span to the client's
      // and, downstream, to the dispatcher's and the solver jobs').
      const std::uint64_t flow = request.flow_id();
      std::string span_name, span_args;
      if (obs::tracing()) {
        span_name = "serve.request " + request.client + " req " +
                    std::to_string(request.id);
        if (!request.trace_id.empty()) {
          span_args = obs::JsonWriter()
                          .begin_object()
                          .field("trace_id", request.trace_id)
                          .end_object()
                          .take();
        }
      }
      obs::Span span(span_name, "serve", span_args);
      if (flow != 0) obs::record_flow("serve.request", "serve", flow, 't');
      if (!parsed.is_ok()) {
        response.id = request.id;
        response.status = parsed;
      } else if (request.type == RequestType::kHello ||
                 request.type == RequestType::kHealthz ||
                 request.type == RequestType::kMetrics) {
        // Built-ins bypass admission (and keep answering while draining):
        // they are cheap, and an orchestrator needs them to watch the drain.
        response = make_builtin_response(request);
      } else if (draining()) {
        response.id = request.id;
        response.status = robust::Status::error(
            robust::StatusCode::kDraining, "server is draining",
            "serve " + endpoint());
        response.retry_after_s = tun.retry_after_s;
      } else {
        auto pending = std::make_unique<PendingRequest>();
        pending->request = request;
        pending->enqueued_us = obs::wall_now_us();
        // Deadline policy: the client's deadline_s, defaulted and capped by
        // the tunables, becomes an absolute steady-clock point stamped at
        // admission — queue wait burns the same budget the engine gets.
        double deadline_s = request.deadline_s;
        if (deadline_s <= 0.0) deadline_s = tun.default_deadline_s;
        if (tun.max_deadline_s > 0.0 &&
            (deadline_s <= 0.0 || deadline_s > tun.max_deadline_s)) {
          deadline_s = tun.max_deadline_s;
        }
        if (deadline_s > 0.0) {
          granted_deadline_s = deadline_s;
          pending->granted_deadline_s = deadline_s;
          pending->deadline_at =
              std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(deadline_s));
        }
        std::future<Response> future = pending->promise.get_future();
        switch (queue_.push(std::move(pending))) {
          case Admit::kAdmitted: {
            obs::Span wait_span("serve.queue_wait", "serve");
            response = future.get();
            break;
          }
          case Admit::kOverloaded:
            response.id = request.id;
            response.status = robust::Status::error(
                robust::StatusCode::kOverloaded,
                "admission queue full (" +
                    std::to_string(queue_.capacity()) + ")",
                "serve " + endpoint());
            response.retry_after_s = tun.retry_after_s;
            break;
          case Admit::kClosed:
            response.id = request.id;
            response.status = robust::Status::error(
                robust::StatusCode::kDraining, "server is draining",
                "serve " + endpoint());
            response.retry_after_s = tun.retry_after_s;
            break;
        }
      }
    }

    const double wall_s = (obs::now_us() - t0) * 1e-6;
    // Every response echoes the server-side view of its latency; workload
    // responses already carry the queue/engine/render split the
    // dispatcher measured.
    response.timing.total_s = wall_s;
    if (granted_deadline_s > 0.0) {
      response.timing.budget_consumed = wall_s / granted_deadline_s;
    }
    observe_request(request, response, wall_s);
    log_request(request, response, wall_s);
    // The write is also bounded: a peer that sent a request and then
    // stopped reading must not pin this thread past the frame budget.
    if (!write_frame(fd, serialize_response(response), &error,
                     IoDeadlines{0.0, tun.frame_timeout_s})) {
      break;
    }
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  sessions_[slot]->fd = -1;
  --active_sessions_;
  free_slots_.push_back(slot);
  serve_metrics().sessions.set(static_cast<std::int64_t>(active_sessions_));
}

void Server::dispatch_loop() {
  while (auto pending = queue_.pop()) {
    serve_metrics().queue_depth.set(
        static_cast<std::int64_t>(queue_.depth()));
    Response response;
    const auto now = std::chrono::steady_clock::now();
    // Queue-wait is attributed at pickup: everything between admission
    // and this point was spent behind other tenants' work.
    const double queue_s =
        std::chrono::duration<double>(now - pending->enqueued_at).count();
    response.timing.queue_s = queue_s < 0.0 ? 0.0 : queue_s;
    if (pending->has_deadline() && now >= pending->deadline_at) {
      // Admission shedding: the client stopped waiting while this sat in
      // the queue — answer kDeadlineExceeded without burning engine work.
      response.id = pending->request.id;
      response.status = robust::Status::error(
          robust::StatusCode::kDeadlineExceeded,
          "deadline expired while queued", "serve " + endpoint());
      response.retry_after_s = tunables().retry_after_s;
    } else {
      double budget_s = 0.0;
      if (pending->has_deadline()) {
        budget_s =
            std::chrono::duration<double>(pending->deadline_at - now).count();
      }
      // Everything the dispatcher (and the engine jobs it schedules) does
      // from here runs under the request's flow id, so solver spans on
      // pool workers link back to this request in the merged trace.
      obs::ScopedFlow flow_scope(pending->request.flow_id());
      const double h0 = obs::now_us();
      double engine_s = 0.0;
      try {
        response = handle_workload(pending->request, budget_s, &engine_s);
      } catch (...) {
        response.id = pending->request.id;
        response.status = robust::status_of_current_exception().with_context(
            "serve dispatch");
      }
      const double handled_s = (obs::now_us() - h0) * 1e-6;
      response.timing.queue_s = queue_s < 0.0 ? 0.0 : queue_s;
      response.timing.engine_s = engine_s;
      response.timing.render_s =
          handled_s > engine_s ? handled_s - engine_s : 0.0;
    }
    pending->promise.set_value(std::move(response));
  }
}

Response Server::handle_workload(const Request& request,
                                 double deadline_seconds,
                                 double* engine_seconds) {
  // Labels carry the tenant so the failure report, the event log, and a
  // fault plan's label matching (--inject "throw:<client>") are per-client.
  const std::string label =
      request.client + " req " + std::to_string(request.id);
  std::string span_name;
  if (obs::tracing()) {
    span_name = "serve." + to_string(request.type) + " " + label;
  }
  obs::Span span(span_name, "serve");
  if (const std::uint64_t flow = obs::current_flow_id(); flow != 0) {
    obs::record_flow("serve.dispatch", "serve", flow, 't');
  }
  const auto engine_timer = [engine_seconds](double t0_us) {
    if (engine_seconds) *engine_seconds += (obs::now_us() - t0_us) * 1e-6;
  };

  Response response;
  response.id = request.id;
  if (request.type == RequestType::kTruthTable) {
    const auto spec = make_truth_table_spec(request.gate);
    if (!spec) {
      response.status = robust::Status::error(
          robust::StatusCode::kInvalidConfig,
          "unknown gate '" + request.gate.kind + "'", "serve " + label);
      return response;
    }
    const double e0 = obs::now_us();
    const auto outcome = runner_->run_truth_table_checked(
        spec->factory, spec->key, {}, label, deadline_seconds);
    engine_timer(e0);
    response.text = core::format_report(outcome.report);
    if (outcome.ok()) {
      response.all_pass = outcome.report.all_pass ? 1.0 : 0.0;
      response.max_asymmetry = outcome.report.max_output_asymmetry;
      response.min_margin = outcome.report.min_margin;
    } else {
      response.status = outcome.failures.failures().front().status;
    }
  } else if (request.type == RequestType::kYield) {
    const auto spec = make_yield_spec(request.yield);
    if (!spec) {
      response.status = robust::Status::error(
          robust::StatusCode::kInvalidConfig,
          "unknown gate '" + request.yield.kind + "' (yield wants maj|xor)",
          "serve " + label);
      return response;
    }
    const double e0 = obs::now_us();
    const auto outcome = runner_->run_yield_checked(
        spec->factory, spec->model, spec->trials, label, deadline_seconds);
    engine_timer(e0);
    response.text = render_yield(spec->kind, outcome.report);
    if (outcome.ok()) {
      response.yield_value = outcome.report.yield;
      response.mean_worst_margin = outcome.report.mean_worst_margin;
    } else {
      response.status = outcome.failures.failures().front().status;
    }
  } else if (request.type == RequestType::kMicromag) {
    const auto spec = make_micromag_spec(request.micromag);
    if (!spec) {
      response.status = robust::Status::error(
          robust::StatusCode::kInvalidConfig,
          "unknown gate '" + request.micromag.kind +
              "' (micromag wants maj|xor)",
          "serve " + label);
      return response;
    }
    const double e0 = obs::now_us();
    const auto outcome = runner_->run_truth_table_checked(
        spec->factory, spec->key, spec->prepare, label, deadline_seconds);
    engine_timer(e0);
    response.text = core::format_report(outcome.report);
    if (outcome.ok()) {
      response.all_pass = outcome.report.all_pass ? 1.0 : 0.0;
      response.max_asymmetry = outcome.report.max_output_asymmetry;
      response.min_margin = outcome.report.min_margin;
    } else {
      response.status = outcome.failures.failures().front().status;
    }
  } else {
    response.status = robust::Status::error(
        robust::StatusCode::kInternal,
        "built-in request reached the dispatcher", "serve " + label);
  }
  if (response.status.code() == robust::StatusCode::kDeadlineExceeded) {
    // The engine shed (or tripped) this request's deadline mid-solve; the
    // rejection is retryable-with-budget, so hint a pause like the other
    // shedding paths do.
    response.retry_after_s = tunables().retry_after_s;
  }
  return response;
}

bool Server::stream_probes(int fd, const Request& request) {
  const double t0 = obs::now_us();
  const ServeTunables tun = tunables();
  std::string error;

  // The ack is a normal response frame, so existing clients can tell a
  // granted subscription from a drain rejection before raw frames start.
  Response ack;
  ack.id = request.id;
  std::shared_ptr<obs::ProbeHub::Subscription> sub;
  if (draining()) {
    ack.status =
        robust::Status::error(robust::StatusCode::kDraining,
                              "server is draining", "serve " + endpoint());
    ack.retry_after_s = tun.retry_after_s;
  } else {
    sub = obs::ProbeHub::global().subscribe();
    ack.payload_json = "{\"subscribed\":true}";
  }
  bool write_ok = write_frame(fd, serialize_response(ack), &error,
                              IoDeadlines{0.0, tun.frame_timeout_s});
  if (!sub || !write_ok) {
    const double wall_s = (obs::now_us() - t0) * 1e-6;
    ack.timing.total_s = wall_s;
    observe_request(request, ack, wall_s);
    log_request(request, ack, wall_s);
    return write_ok;
  }

  probe_streams_.fetch_add(1, std::memory_order_relaxed);
  probe_active_.fetch_add(1, std::memory_order_relaxed);
  serve_metrics().probe_streams.add();
  serve_metrics().probe_active.set(static_cast<std::int64_t>(
      probe_active_.load(std::memory_order_relaxed)));

  std::uint64_t frames = 0;
  const char* end_reason = "done";
  while (true) {
    if (draining()) {
      end_reason = "draining";
      break;
    }
    if (request.probe_max_frames > 0 && frames >= request.probe_max_frames) {
      break;
    }
    if (request.probe_duration_s > 0.0 &&
        (obs::now_us() - t0) * 1e-6 >= request.probe_duration_s) {
      break;
    }
    // A readable subscribed socket means EOF, reset, or a pipelined next
    // request — all three end the stream (the session loop re-reads the
    // socket afterwards), so an abandoned stream can never hang a thread.
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 0) > 0 &&
        (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      break;
    }
    obs::ProbeHub::Frame frame;
    // The short wait bounds how stale the draining/deadline checks get;
    // it is not a per-frame latency (frames push as soon as one arrives).
    if (!sub->next(&frame, 0.25)) continue;
    if (!request.probe_filter.empty() &&
        frame.probe != request.probe_filter) {
      continue;
    }
    obs::JsonWriter doc;
    doc.begin_object()
        .field("type", "probe.frame")
        .field("job", frame.job)
        .field("probe", frame.probe)
        .field("window", frame.window)
        .field("t", frame.t)
        .field("amplitude", frame.amplitude)
        .field("phase", frame.phase)
        .field("converged", frame.converged);
    if (frame.converged_at >= 0.0) {
      doc.field("converged_at", frame.converged_at);
    }
    doc.field("dropped", sub->dropped()).end_object();
    if (!write_frame(fd, doc.str(), &error,
                     IoDeadlines{0.0, tun.frame_timeout_s})) {
      write_ok = false;
      end_reason = "error";
      break;
    }
    ++frames;
    probe_frames_.fetch_add(1, std::memory_order_relaxed);
    serve_metrics().probe_frames.add();
  }

  const std::uint64_t dropped = sub->dropped();
  if (dropped > 0) {
    probe_dropped_.fetch_add(dropped, std::memory_order_relaxed);
    serve_metrics().probe_dropped.add(dropped);
  }
  // Unsubscribe before the end marker goes out, so a client that has read
  // probe.end never sees this stream still live in the hub or healthz.
  sub.reset();  // publishers stop paying for this stream
  probe_active_.fetch_sub(1, std::memory_order_relaxed);
  serve_metrics().probe_active.set(static_cast<std::int64_t>(
      probe_active_.load(std::memory_order_relaxed)));
  if (write_ok) {
    const std::string fin = obs::JsonWriter()
                                .begin_object()
                                .field("type", "probe.end")
                                .field("reason", end_reason)
                                .field("frames", frames)
                                .field("dropped", dropped)
                                .end_object()
                                .take();
    write_ok =
        write_frame(fd, fin, &error, IoDeadlines{0.0, tun.frame_timeout_s});
  }

  const double wall_s = (obs::now_us() - t0) * 1e-6;
  Response summary;
  summary.id = request.id;
  if (!write_ok) {
    summary.status = robust::Status::error(robust::StatusCode::kIoError,
                                           "probe stream write failed: " +
                                               error,
                                           "serve " + endpoint());
  }
  summary.timing.total_s = wall_s;
  observe_request(request, summary, wall_s);
  log_request(request, summary, wall_s);
  return write_ok;
}

Response Server::make_builtin_response(const Request& request) {
  Response response;
  response.id = request.id;
  if (request.type == RequestType::kHello) {
    const BuildInfo info = build_info();
    response.payload_json = obs::JsonWriter()
                                .begin_object()
                                .field("protocol", info.protocol)
                                .field("version", info.version)
                                .field("git_sha", info.git_sha)
                                .field("compiler", info.compiler)
                                .field("flags", info.flags)
                                .field("build_type", info.build_type)
                                .field("cores", info.cores)
                                .field("endpoint", endpoint())
                                .end_object()
                                .take();
  } else if (request.type == RequestType::kHealthz) {
    response.payload_json = healthz_payload();
  } else {
    response.payload_json = obs::MetricsRegistry::global().json();
  }
  return response;
}

std::string Server::healthz_payload() const {
  const engine::EngineStats stats = runner_->stats();
  std::size_t sessions = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions = active_sessions_;
  }
  const double uptime_s = (obs::now_us() - start_t_us_) * 1e-6;
  const ServeTunables tun = tunables();
  const auto relaxed = [](const auto& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  obs::JsonWriter w;
  w.begin_object()
      .field("status", draining() ? "draining" : "ok")
      .field("uptime_s", uptime_s)
      .field("sessions", sessions)
      .field("sessions_timed_out", relaxed(sessions_timed_out_))
      // oldest_wait_s is the head-of-line age: the single best signal
      // that dispatchers are starved relative to the arrival rate.
      .key("queue")
      .begin_object()
      .field("depth", queue_.depth())
      .field("capacity", queue_.capacity())
      .field("oldest_wait_s", queue_.oldest_wait_seconds())
      .end_object()
      .key("requests")
      .begin_object()
      .field("total", relaxed(requests_total_))
      .field("failed", relaxed(requests_failed_))
      .field("rejected_overload", relaxed(rejected_overload_))
      .field("rejected_draining", relaxed(rejected_draining_))
      .field("rejected_deadline", relaxed(rejected_deadline_))
      .end_object()
      // Tunables are surfaced so a SIGHUP reload is observable without
      // reading the daemon's logs.
      .key("tunables")
      .begin_object()
      .field("queue_capacity", tun.queue_capacity)
      .field("retry_after_s", tun.retry_after_s)
      .field("idle_timeout_s", tun.idle_timeout_s)
      .field("frame_timeout_s", tun.frame_timeout_s)
      .field("default_deadline_s", tun.default_deadline_s)
      .field("max_deadline_s", tun.max_deadline_s)
      .end_object()
      .key("recovery")
      .begin_object()
      .field("scanned", recovery_.scanned)
      .field("healthy", recovery_.healthy)
      .field("quarantined", recovery_.quarantined)
      .field("removed_tmp", recovery_.removed_tmp)
      .end_object()
      // The warm-cache proof surface: a repeated request raises hits
      // while jobs_executed stays put.
      .key("cache")
      .begin_object()
      .field("hits", stats.cache.hits)
      .field("misses", stats.cache.misses)
      .field("hit_rate", stats.cache.hit_rate())
      .field("spill_loads", stats.cache.spill_loads)
      .field("spill_corrupt", stats.cache.spill_corrupt)
      .end_object()
      .key("engine")
      .begin_object()
      .field("threads", stats.threads)
      .field("jobs_executed", stats.jobs_executed)
      .field("jobs_failed", stats.jobs_failed)
      .end_object()
      // Probe-stream accounting: lifetime streams/frames/drops plus the
      // number of live subscriptions right now.
      .key("probe")
      .begin_object()
      .field("streams", relaxed(probe_streams_))
      .field("frames", relaxed(probe_frames_))
      .field("dropped", relaxed(probe_dropped_))
      .field("active", relaxed(probe_active_))
      .end_object()
      // Per-tenant SLO accounting (serve/slo.h): phase histograms,
      // shed counters and budget consumption per tenant and kind.
      .key("slo")
      .raw(slo_.json())
      .end_object();
  return w.take();
}

void Server::observe_request(const Request& request, const Response& response,
                             double wall_s) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  serve_metrics().requests.add();
  switch (response.status.code()) {
    case robust::StatusCode::kOk:
      break;
    case robust::StatusCode::kOverloaded:
      rejected_overload_.fetch_add(1, std::memory_order_relaxed);
      serve_metrics().rejected_overload.add();
      break;
    case robust::StatusCode::kDraining:
      rejected_draining_.fetch_add(1, std::memory_order_relaxed);
      serve_metrics().rejected_draining.add();
      break;
    case robust::StatusCode::kDeadlineExceeded:
      // A shed deadline is the client's budget running out, not a server
      // failure — tracked apart so the failure rate stays meaningful.
      rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
      serve_metrics().rejected_deadline.add();
      break;
    default:
      requests_failed_.fetch_add(1, std::memory_order_relaxed);
      serve_metrics().failed.add();
      break;
  }
  serve_metrics().request_seconds.observe(wall_s);
  serve_metrics().queue_depth.set(static_cast<std::int64_t>(queue_.depth()));

  SloTracker::Sample sample;
  sample.tenant = request.client;
  sample.kind = to_string(request.type);
  sample.code = response.status.code();
  sample.queue_s = response.timing.queue_s;
  sample.engine_s = response.timing.engine_s;
  sample.render_s = response.timing.render_s;
  sample.total_s = wall_s;
  sample.budget_consumed = response.timing.budget_consumed;
  slo_.record(sample);
}

void Server::log_request(const Request& request, const Response& response,
                         double wall_s) {
  const std::uint64_t t_us = obs::wall_now_us();
  obs::JsonWriter w;
  w.begin_object()
      .field("t_us", t_us)
      .field("ts", obs::format_iso8601_us(t_us))
      .field("client", request.client)
      .field("type", to_string(request.type))
      .field("id", request.id);
  if (!request.trace_id.empty()) {
    // Correlation key: the same id appears in the client's log and in
    // both trace files, so one grep joins all four views of a request.
    w.field("trace_id", request.trace_id);
  }
  w.field("code", robust::to_string(response.status.code()))
      .field("wall_s", wall_s)
      .end_object();
  const std::string& line = w.str();
  // The flight recorder sees every request, log file or not: the ring is
  // what a SIGQUIT / crash postmortem reads back.
  flight_.record(line);
  std::lock_guard<std::mutex> lock(log_mutex_);
  if (!log_out_.is_open()) return;
  log_out_ << line << "\n";
  log_out_.flush();
}

void Server::dump_flight_recorder() {
  std::lock_guard<std::mutex> lock(log_mutex_);
  if (log_out_.is_open()) {
    flight_.dump(log_out_);
    log_out_.flush();
  } else {
    flight_.dump(std::cerr);
  }
}

void Server::begin_drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;
  }
  // Wake the accept loop so it stops taking connections, then close the
  // queue: the admitted backlog still drains, new pushes get kClosed.
  if (wake_write_ != -1) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t rc = ::write(wake_write_, &byte, 1);
  }
  queue_.close();
}

void Server::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  begin_drain();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ != -1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (!config_.socket_path.empty()) {
      std::error_code ec;
      std::filesystem::remove(config_.socket_path, ec);
    }
  }
  // Dispatchers exit once the closed queue is empty — every admitted
  // request has its promise fulfilled before this returns.
  for (auto& t : dispatcher_threads_) {
    if (t.joinable()) t.join();
  }
  // Sessions are now either blocked in read (half-close wakes them with
  // EOF) or writing their final response (which completes normally).
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (const auto& s : sessions_) {
      if (s->fd != -1) ::shutdown(s->fd, SHUT_RD);
    }
  }
  for (const auto& s : sessions_) {
    if (s->thread.joinable()) s->thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    if (log_out_.is_open()) log_out_.close();
  }
}

void Server::reload() {
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    if (!config_.request_log.empty()) {
      if (log_out_.is_open()) log_out_.close();
      log_out_.open(config_.request_log, std::ios::app);
    }
  }
  if (!config_.tunables_file.empty()) {
    if (const robust::Status s = apply_tunables_file(); !s.is_ok()) {
      // Keep serving with the previous tunables; a broken reload must
      // never take the daemon down.
      std::fprintf(stderr, "swsim serve: tunables reload failed: %s\n",
                   s.message().c_str());
    }
  }
}

int Server::run_until_shutdown() {
  auto& signal = robust::ShutdownSignal::global();
  robust::ShutdownConfig sc;
  sc.handle_hup = true;
  sc.handle_quit = true;  // SIGQUIT: dump the flight recorder, keep serving
  sc.cancel_on_first = false;  // first signal drains; the second cancels
  signal.install(sc);

  std::uint64_t seen_hups = signal.hups();
  std::uint64_t seen_quits = signal.quits();
  while (signal.interrupts() == 0) {
    pollfd p{signal.poll_fd(), POLLIN, 0};
    if (::poll(&p, 1, -1) < 0 && errno != EINTR) break;
    signal.drain_poll_fd();
    const std::uint64_t hups = signal.hups();
    if (hups != seen_hups) {
      seen_hups = hups;
      reload();
    }
    const std::uint64_t quits = signal.quits();
    if (quits != seen_quits) {
      seen_quits = quits;
      dump_flight_recorder();
    }
  }
  // Graceful drain. A second SIGTERM/SIGINT during the drain trips the
  // process-wide cancel flag (ShutdownSignal policy), so stuck in-flight
  // solves abort at their next poll point and the drain still converges.
  shutdown();
  return 0;
}

}  // namespace swsim::serve
