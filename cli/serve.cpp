// Serve and client commands: the long-lived daemon (protocol
// swsim.serve/1, see docs/SERVING.md), one-shot requests against it and
// the live probe stream.
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <sstream>
#include <tuple>
#include <utility>

#include "cli/commands.h"
#include "core/validator.h"
#include "io/table.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/codec.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/version.h"

namespace swsim::cli {

using io::Table;

namespace {

// The daemon endpoint: exactly one of a Unix socket path (empty for TCP)
// or a loopback TCP port in 1..65535.
std::pair<std::string, int> endpoint_from(const Args& args) {
  const std::string socket = args.value("socket").value_or("");
  const bool tcp = args.has("port");
  const long port = args.integer("port", 0);
  if (socket.empty() != tcp || (tcp && (port < 1 || port > 65535))) {
    throw std::invalid_argument(
        args.command() +
        ": need exactly one of --socket <path> or --port <1-65535>");
  }
  return {socket, static_cast<int>(port)};
}

// A request takes the workload flags (and the gate) its local command
// takes, so `client ... truthtable maj --trials 5` is refused as `swsim
// truthtable maj --trials 5` is; hello, healthz and metrics take none.
void check_workload_flags(const std::string& type, const Args& args) {
  const auto table = commands();
  const auto local = std::ranges::find(table, type, &Command::name);
  const bool builtin = local == table.end();
  if (builtin && args.positional().size() > 1) {
    throw std::invalid_argument("client " + type + ": unexpected argument '" +
                                args.positional()[1] + "'");
  }
  const std::span<const Flag> takes =
      builtin ? std::span<const Flag>() : local->flags;
  for (const Flag& f : kWorkloadFlags.flags) {
    if (args.has(std::string(f.name)) &&
        std::ranges::find(takes, f.name, &Flag::name) == takes.end()) {
      throw std::invalid_argument("client " + type + ": flag --" +
                                  std::string(f.name) + " does not apply");
    }
  }
}

// Client exit codes: 0 ok (truthtable: all_pass), 1 remote/logic failure
// or verify mismatch, 2 usage, 3 retryable rejection on one attempt, 4
// transport, and 5 for a spent budget — deadline exceeded or attempts
// exhausted: try again later with more, unlike a failure or dead transport.
constexpr int kClientExitDeadline = 5;

}  // namespace

int cmd_version(const Args&) {
  std::cout << serve::describe(serve::build_info());
  return 0;
}

int cmd_serve(const Args& args) {
  serve::ServerConfig cfg;
  std::tie(cfg.socket_path, cfg.tcp_port) = endpoint_from(args);
  cfg.dispatchers = args.thread_count("dispatchers", 2);
  cfg.queue_capacity = args.unsigned_integer("queue", 64);
  cfg.max_sessions = args.unsigned_integer("max-sessions", 64);
  cfg.retry_after_s = args.number("retry-after", 0.5);
  cfg.idle_timeout_s = args.number("idle-timeout", 300.0);
  cfg.frame_timeout_s = args.number("frame-timeout", 30.0);
  cfg.default_deadline_s = args.number("default-deadline", 0.0);
  cfg.max_deadline_s = args.number("max-deadline", 0.0);
  if (cfg.retry_after_s < 0.0 || cfg.idle_timeout_s < 0.0 ||
      cfg.frame_timeout_s < 0.0 || cfg.default_deadline_s < 0.0 ||
      cfg.max_deadline_s < 0.0) {
    throw std::invalid_argument("serve retry-after/timeouts/deadlines must "
                                "be >= 0");
  }
  cfg.tunables_file = args.value("tunables").value_or("");
  cfg.request_log = args.value("request-log").value_or("");
  // The daemon is the crash-dump case the flight recorder exists for; the
  // in-process servers tests/benches start leave it disarmed.
  cfg.arm_crash_dump = true;
  cfg.engine = engine_config_from(args);
  if (const auto inject = args.value("inject")) arm_faults(*inject);

  // A daemon's stderr is a log stream: worker threads must never write
  // progress lines into it, whatever fd 2 happens to be.
  obs::ProgressReporter::global().suppress_output();
  // Metrics stay armed for the daemon's lifetime — the /metrics built-in
  // serves the registry to any client.
  obs::MetricsRegistry::global().reset();
  obs::MetricsRegistry::arm();
  // --trace-out arms tracing for the daemon's whole lifetime; the file is
  // written at shutdown. Merge it with a client's trace via `trace merge`.
  const std::string trace_out = args.value("trace-out").value_or("");
  if (!trace_out.empty()) obs::TraceSession::global().start();

  serve::Server server(cfg);
  if (const auto status = server.start(); !status.is_ok()) {
    std::cerr << "serve: " << status.str() << '\n';
    return status.code() == robust::StatusCode::kInvalidConfig ? 2 : 1;
  }
  if (!cfg.engine.spill_dir.empty()) {
    const auto rec = server.recovery_report();
    std::cout << "serve: cache recovery: " << rec.scanned << " scanned, "
              << rec.healthy << " healthy, " << rec.quarantined
              << " quarantined, " << rec.removed_tmp << " tmp removed\n";
  }
  std::cout << "serve: listening on " << server.endpoint() << " (sha "
            << serve::build_info().git_sha << ")\n"
            << std::flush;
  const int rc = server.run_until_shutdown();
  if (!trace_out.empty() && !write_trace(trace_out, "serve: ", std::cout)) {
    return rc == 0 ? 1 : rc;
  }
  return rc;
}

int cmd_client(const Args& args) {
  const std::string& type = args.positional()[0];
  const auto [socket, port] = endpoint_from(args);
  serve::Request request;
  request.id = args.unsigned_integer("id", 0);
  request.client = args.value("client").value_or("anon");
  request.priority = static_cast<int>(args.integer("priority", 0));
  if (type == "hello") {
    request.type = serve::RequestType::kHello;
  } else if (type == "healthz") {
    request.type = serve::RequestType::kHealthz;
  } else if (type == "metrics") {
    request.type = serve::RequestType::kMetrics;
  } else if (type == "truthtable") {
    if (args.positional().size() < 2) {
      std::cerr << "client: truthtable needs a gate name\n";
      return 2;
    }
    request.type = serve::RequestType::kTruthTable;
    request.gate = gate_params_from(args.positional()[1], args);
  } else if (type == "yield") {
    request.type = serve::RequestType::kYield;
    request.yield = yield_params_from(gate_arg(args, 1), args);
  } else if (type == "micromag") {
    request.type = serve::RequestType::kMicromag;
    request.micromag = micromag_params_from(gate_arg(args, 1), args);
  } else {
    std::cerr << "client: unknown request type '" << type
              << "' (want hello|healthz|metrics|truthtable|yield|micromag)\n";
    return 2;
  }
  check_workload_flags(type, args);

  // Cross-process trace context: --trace-id stamps the request so the
  // daemon's spans and request log carry it; --trace-out additionally
  // records the client's side of the exchange, ready for `trace merge`
  // against the daemon's own --trace-out file.
  const std::string trace_out = args.value("trace-out").value_or("");
  std::string trace_id = args.value("trace-id").value_or("");
  if (trace_id.empty() && !trace_out.empty()) {
    trace_id = "cli-" + std::to_string(::getpid()) + "-" +
               std::to_string(static_cast<long long>(obs::wall_now_us()));
  }
  request.trace_id = trace_id;

  if (const auto chaos_spec = args.value("chaos")) {
    // Chaos mode: the request becomes the template for a storm of seeded
    // hostile exchanges. The only failure is a hung session — everything
    // else (structured errors, slammed doors) is the contract working.
    serve::ChaosProfile profile;
    if (const auto parsed = serve::parse_chaos_spec(*chaos_spec, &profile);
        !parsed.is_ok()) {
      std::cerr << "client: --chaos: " << parsed.message() << '\n';
      return 2;
    }
    const serve::ChaosSummary summary =
        serve::run_chaos(profile, socket, port, request);
    std::cout << summary.str() << '\n';
    return summary.clean() ? 0 : 1;
  }

  serve::RetryPolicy policy;
  policy.max_attempts = static_cast<int>(args.integer("max-attempts", 1));
  if (policy.max_attempts < 1) {
    std::cerr << "client: --max-attempts must be >= 1\n";
    return 2;
  }
  policy.deadline_s = args.number("deadline", 0.0);
  policy.base_backoff_s = args.number("retry-base", 0.05);
  policy.max_backoff_s = args.number("retry-max", 2.0);
  policy.seed = args.unsigned_integer("retry-seed", 1);
  if (policy.deadline_s < 0.0 || policy.base_backoff_s < 0.0 ||
      policy.max_backoff_s < 0.0) {
    std::cerr << "client: --deadline/--retry-base/--retry-max must be >= 0\n";
    return 2;
  }

  serve::Response response;
  serve::RetryStats stats;
  robust::Status status;
  {
    // The client's half of the cross-process trace: a span over the whole
    // exchange with the flow 's' (start) the server's 't' steps chain to.
    // Both sides derive the flow id from trace_id via the same hash, so
    // the merged file connects them with no negotiation. When --trace-out
    // is absent tracing stays disarmed and all of this is a no-op.
    if (!trace_out.empty()) obs::TraceSession::global().start();
    std::string span_name, span_args;
    if (obs::tracing()) {
      span_name = "client.request " + type;
      span_args = obs::JsonWriter()
                      .begin_object()
                      .field("trace_id", trace_id)
                      .end_object()
                      .take();
    }
    obs::Span span(span_name, "client", span_args);
    obs::record_flow("client.request", "client", request.flow_id(), 's');
    status = serve::call_with_retries(socket, port, request, policy,
                                      &response, &stats);
  }
  if (!trace_out.empty()) {
    // Reporting on stderr keeps stdout byte-identical to an untraced call.
    write_trace(trace_out, "client: ", std::cerr,
                " (trace id " + trace_id + ")");
  }
  if (stats.retries > 0) {
    // Retry-budget accounting, on stderr so stdout stays byte-identical
    // to a single-shot call.
    std::cerr << "client: " << stats.attempts << " attempts, "
              << stats.retries << " retries, " << stats.backoff_s
              << " s backoff (last error: " << stats.last_error.str()
              << ")\n";
  }
  if (!status.is_ok()) {
    std::cerr << "client: " << status.str() << '\n';
    return status.code() == robust::StatusCode::kDeadlineExceeded
               ? kClientExitDeadline
               : 4;
  }

  if (args.has("timing")) {
    // The server's own phase split (echoed on every response), on stderr
    // so stdout stays byte-clean for --verify and piped consumers.
    const auto& t = response.timing;
    if (t.any()) {
      std::ostringstream os;
      os.precision(6);
      os << "client: timing:";
      if (t.queue_s >= 0.0) os << " queue " << t.queue_s << "s";
      if (t.engine_s >= 0.0) os << " engine " << t.engine_s << "s";
      if (t.render_s >= 0.0) os << " render " << t.render_s << "s";
      if (t.total_s >= 0.0) os << " total " << t.total_s << "s";
      if (t.budget_consumed >= 0.0) {
        os << " (deadline budget " << t.budget_consumed * 100.0 << "% used)";
      }
      std::cerr << os.str() << '\n';
    } else {
      std::cerr << "client: timing: server reported no timing block\n";
    }
  }

  const robust::StatusCode code = response.status.code();
  if (code == robust::StatusCode::kDeadlineExceeded) {
    std::cerr << "client: " << response.status.str() << '\n';
    return kClientExitDeadline;
  }
  if (code == robust::StatusCode::kOverloaded ||
      code == robust::StatusCode::kDraining ||
      (robust::is_retryable(code) && !response.status.is_ok())) {
    std::cerr << "client: " << response.status.str();
    if (response.retry_after_s > 0.0) {
      std::cerr << " (retry after " << response.retry_after_s << " s)";
    }
    std::cerr << '\n';
    // A retryable rejection on a single attempt says "try again" (3); the
    // same answer after a spent retry budget says "budget exhausted" (5).
    return policy.max_attempts > 1 ? kClientExitDeadline : 3;
  }
  if (!response.status.is_ok()) {
    if (!response.text.empty()) std::cout << response.text;
    std::cerr << "client: " << response.status.str() << '\n';
    return 1;
  }
  if (!response.text.empty()) std::cout << response.text;
  if (!response.payload_json.empty()) {
    std::cout << response.payload_json << '\n';
  }

  if (request.type == serve::RequestType::kHello) {
    // Version-skew detection: a daemon built from another commit may not
    // be byte-identical with this binary's CLI.
    const serve::BuildInfo local = serve::build_info();
    try {
      const auto doc = obs::parse_json(response.payload_json);
      const auto* sha = doc.find("git_sha");
      if (sha && sha->is_string() && sha->str() != local.git_sha) {
        std::cerr << "client: warning: server built from " << sha->str()
                  << ", this binary from " << local.git_sha
                  << " — responses may not match local runs byte-for-byte\n";
      }
    } catch (const std::exception&) {
      // hello payload unparsable: the transport already succeeded, so
      // just skip the skew check.
    }
  }

  if (args.has("verify")) {
    // The wire determinism contract, checked end to end: recompute the
    // workload locally through the shared spec layer (on any engine
    // configuration) and require the served text to be byte-identical.
    const bool truthtable = request.type == serve::RequestType::kTruthTable;
    if (!truthtable && request.type != serve::RequestType::kYield) {
      std::cerr << "client: --verify applies to truthtable/yield requests\n";
      return 2;
    }
    const auto table_spec = serve::make_truth_table_spec(request.gate);
    const auto yield_spec = serve::make_yield_spec(request.yield);
    if (truthtable ? !table_spec : !yield_spec) {
      std::cerr << "client: --verify: unknown gate\n";
      return 2;
    }
    engine::BatchRunner runner{engine::EngineConfig{}};
    const std::string local_text =
        truthtable
            ? core::format_report(runner.run_truth_table(table_spec->factory,
                                                         table_spec->key))
            : serve::render_yield(
                  yield_spec->kind, runner.run_yield(yield_spec->factory,
                                                     yield_spec->model,
                                                     yield_spec->trials));
    if (local_text != response.text) {
      std::cerr << "client: VERIFY MISMATCH — served bytes differ from the "
                   "local computation\n";
      return 1;
    }
    std::cerr << "client: verify OK (served bytes == local bytes)\n";
  }

  if (request.type == serve::RequestType::kTruthTable &&
      serve::Response::set(response.all_pass)) {
    return response.all_pass != 0.0 ? 0 : 1;
  }
  return 0;
}

// Live stream: subscribes to a daemon's probe hub and renders each
// envelope frame as one line until the stream ends.
int cmd_probe_tail(const Args& args) {
  const auto [socket, port] = endpoint_from(args);
  serve::Request request;
  request.type = serve::RequestType::kProbeSubscribe;
  request.id = args.unsigned_integer("id", 1);
  request.client = args.value("client").value_or("probe-tail");
  request.probe_max_frames = args.unsigned_integer("max-frames", 0);
  request.probe_duration_s = args.number("duration", 0.0);
  request.probe_filter = args.value("probe").value_or("");

  serve::Client client;
  serve::Response ack;
  robust::Status st =
      socket.empty() ? client.connect_tcp(port) : client.connect_unix(socket);
  if (st.is_ok()) st = client.call(request, &ack);
  if (!st.is_ok()) {
    std::cerr << "probe tail: " << st.str() << '\n';
    return 4;
  }
  if (!ack.status.is_ok()) {
    std::cerr << "probe tail: " << ack.status.str() << '\n';
    return 3;
  }
  std::cerr << "subscribed"
            << (request.probe_filter.empty()
                    ? "" : " (probe " + request.probe_filter + ")")
            << "; streaming...\n";

  std::string payload;
  std::string error;
  while (true) {
    const serve::ReadResult r =
        serve::read_frame(client.fd(), &payload, &error, serve::IoDeadlines{});
    if (r != serve::ReadResult::kFrame) {
      if (r == serve::ReadResult::kError) {
        std::cerr << "probe tail: " << error << '\n';
        return 4;
      }
      break;  // EOF: daemon went away
    }
    obs::JsonValue doc;
    try {
      doc = obs::parse_json(payload);
    } catch (const std::exception& e) {
      std::cerr << "probe tail: bad frame: " << e.what() << '\n';
      return 4;
    }
    const auto str = [&doc](const char* k) {
      const auto* v = doc.find(k);
      return v && v->is_string() ? v->str() : std::string();
    };
    const auto num = [&doc](const char* k, double d) {
      const auto* v = doc.find(k);
      return v && v->is_number() ? v->number() : d;
    };
    if (str("type") == "probe.end") {
      std::cout << "stream ended (" << str("reason") << "): "
                << Table::num(num("frames", 0.0), 0) << " frames, "
                << Table::num(num("dropped", 0.0), 0) << " dropped\n";
      break;
    }
    std::cout << "[" << str("job") << "] " << str("probe") << " window "
              << Table::num(num("window", 0.0), 0) << "  t "
              << Table::num(num("t", 0.0) * 1e9, 3) << " ns  A "
              << Table::num(num("amplitude", 0.0), 6) << "  phase "
              << Table::num(num("phase", 0.0), 3) << " rad";
    if (const auto* v = doc.find("converged"); v && v->is_bool() &&
                                               v->boolean()) {
      std::cout << "  converged @ " << Table::num(
                       num("converged_at", 0.0) * 1e9, 3) << " ns";
    }
    if (num("dropped", 0.0) > 0.0) {
      std::cout << "  dropped " << Table::num(num("dropped", 0.0), 0);
    }
    std::cout << '\n' << std::flush;
  }
  return 0;
}

}  // namespace swsim::cli
