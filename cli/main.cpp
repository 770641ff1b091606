// swsim — command-line driver for the spin-wave gate library.
//
//   swsim truthtable <maj|xor|xnor|and|or|nand|nor|maj5|maj7>
//         [--lambda <nm>] [--width <nm>] [engine flags]
//   swsim dispersion [--thickness <nm>] [--material <fecob|yig|permalloy>]
//         [--applied <kA/m>]
//   swsim yield [--gate <maj|xor>] [--sigma-length <nm>] [--sigma-amp <frac>]
//         [--trials <n>] [--lambda <nm>] [engine flags]
//   swsim compare                      (Table III)
//   swsim micromag [--xor] [--lambda <nm>] [--width <nm>] [--cell <nm>]
//         [engine flags]              (runs the LLG backend truth table; slow)
//   swsim batch <jobfile> [--out <csv>] [engine flags]
//   swsim help
//
// Engine flags (the evaluation engine is the default execution path):
//   --jobs <n>     worker threads (0 = hardware concurrency)
//   --no-cache     disable result memoization
//   --cache-dir <d> spill evicted results to (and reuse them from) <d>
//   --serial       bypass the engine: single-threaded legacy path
//   --stats        print engine counters (threads, hit rate, parallelism)
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "bench/harness.h"
#include "cli/args.h"
#include "robust/fault_injection.h"
#include "robust/report.h"
#include "robust/shutdown.h"
#include "robust/status.h"
#include "core/micromag_gate.h"
#include "core/validator.h"
#include "core/variability.h"
#include "engine/batch_runner.h"
#include "engine/hash.h"
#include "io/csv.h"
#include "io/table.h"
#include "mag/kernels/runtime.h"
#include "math/constants.h"
#include "math/spectrum.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/trace_merge.h"
#include "perf/comparison.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/codec.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/version.h"
#include "serve/workload.h"
#include "wavenet/dispersion.h"

using namespace swsim;
using namespace swsim::math;
using swsim::io::Table;

namespace {

int usage() {
  std::cout <<
      "swsim - fan-out-of-2 triangle spin-wave logic gates\n"
      "\n"
      "commands:\n"
      "  truthtable <maj|xor|xnor|and|or|nand|nor|maj5|maj7>\n"
      "             [--lambda <nm>] [--width <nm>]\n"
      "  dispersion [--thickness <nm>] [--material fecob|yig|permalloy]\n"
      "             [--applied <kA/m>]\n"
      "  yield      [--gate maj|xor] [--sigma-length <nm>]\n"
      "             [--sigma-amp <frac>] [--trials <n>] [--lambda <nm>]\n"
      "  compare    (regenerate the paper's Table III)\n"
      "  micromag   [--xor] [--lambda <nm>] [--width <nm>] [--cell <nm>]\n"
      "             [--early-stop]  (stop each LLG solve once the live\n"
      "              port envelopes settle; logic unchanged, saved steps\n"
      "              reported — raw amplitudes may differ from a full run)\n"
      "  batch      <jobfile> [--out <csv>] [--report <csv>] [--fail-fast]\n"
      "             (jobfile: one 'truthtable ...' or 'yield ...' per line;\n"
      "              failed jobs are reported, healthy rows still returned)\n"
      "  stats      <metrics.json> [--prom]\n"
      "             (pretty-print a --metrics-out dump; --prom emits\n"
      "              Prometheus text exposition instead of tables)\n"
      "  trace-check <trace.json>    (validate a --trace-out file,\n"
      "              including flow events and merged multi-process files)\n"
      "  trace merge --out <merged.json> <trace.json...>\n"
      "             (join traces from different processes — e.g. a client's\n"
      "              --trace-out and the daemon's — onto one timeline via\n"
      "              their wall_anchor_us; one pid per input file)\n"
      "  version    (build fingerprint: version, git sha, compiler, flags)\n"
      "  serve      --socket <path> | --port <n>  [--dispatchers <n>]\n"
      "             [--queue <n>] [--max-sessions <n>] [--retry-after <s>]\n"
      "             [--idle-timeout <s>] [--frame-timeout <s>]\n"
      "             [--default-deadline <s>] [--max-deadline <s>]\n"
      "             [--tunables <file>] [--request-log <jsonl>]\n"
      "             [--trace-out <f>] [engine flags]\n"
      "             (long-lived daemon; protocol swsim.serve/1 — see\n"
      "              docs/SERVING.md. SIGTERM drains, SIGHUP reloads the\n"
      "              request log and the --tunables file, SIGQUIT dumps\n"
      "              the flight recorder of recent requests)\n"
      "  client     --socket <path> | --port <n>\n"
      "             <hello|healthz|metrics|truthtable <gate>|yield [gate]\n"
      "              |micromag [gate]>\n"
      "             [--client <name>] [--priority <n>] [--id <n>]\n"
      "             [--deadline <s>] [--max-attempts <n>]\n"
      "             [--retry-base <s>] [--retry-max <s>] [--retry-seed <n>]\n"
      "             [--chaos <spec>] [--verify] [--timing]\n"
      "             [--trace-id <id>] [--trace-out <f>]\n"
      "             [gate flags as above]\n"
      "             (exit 0 ok, 1 remote/logic fail, 2 usage, 3 retryable\n"
      "              rejection, 4 transport, 5 deadline/attempts exhausted;\n"
      "              --timing prints the server's per-phase latency split on\n"
      "              stderr; --trace-id stamps requests so the daemon's\n"
      "              trace carries them, --trace-out also records a local\n"
      "              client span — merge the two files with `trace merge`)\n"
      "  loadgen    --socket <path> | --port <n> [--duration <s>]\n"
      "             [--rps <n>] [--concurrency <n>] [--requests <n>]\n"
      "             [--seed <n>] [--mix <tt:yield:hello>] [--trials <n>]\n"
      "             [--deadline <s>] [--call-timeout <s>] [--tenant <prefix>]\n"
      "             [--trace-id <id>] [--out-dir <dir>] [--quick]\n"
      "             (multi-tenant load generator against a live daemon:\n"
      "              closed loop by default, open loop with --rps; writes\n"
      "              BENCH_serve_throughput.json for bench diff/gate and\n"
      "              exits 1 if any exchange hung past --call-timeout)\n"
      "  probe record   [--xor] [--lambda <nm>] [--width <nm>]\n"
      "             [--cell <nm>] [--pattern <bits>] --out <csv>\n"
      "             (one LLG solve; detector series as probe,t,mx,my,mz)\n"
      "  probe spectrum <series.csv> [--probe <name>] [--out <csv>]\n"
      "             (periodogram of a recorded series; prints the peak)\n"
      "  probe tail --socket <path> | --port <n> [--max-frames <n>]\n"
      "             [--duration <s>] [--probe <name>]\n"
      "             (live lock-in envelopes of a serve daemon's solves —\n"
      "              one line per completed demodulation window)\n"
      "  bench list                  (known bench targets)\n"
      "  bench run  [name...] [--quick] [--repeats <n>] [--warmup <n>]\n"
      "             [--bin-dir <dir>] [--out-dir <dir>]\n"
      "             (run bench binaries; each writes BENCH_<name>.json)\n"
      "  bench diff <base.json> <current.json> [--tolerance <frac>]\n"
      "             [--mad-k <k>]  (compare two runs; exit 1 on regression)\n"
      "  bench gate --baseline <dir> [--current <dir>] [--tolerance <frac>]\n"
      "             [--mad-k <k>]  (gate every BENCH_*.json against a\n"
      "              baseline directory; exit 1 on any regression)\n"
      "  help\n"
      "\n"
      "engine flags (accepted by truthtable, yield, micromag, batch):\n"
      "  --jobs <n>  --no-cache  --cache-dir <dir>  --serial  --stats\n"
      "  --cell-jobs <n>     intra-solve threads for the LLG cell sweeps\n"
      "                      (deterministic: output is byte-identical for\n"
      "                      any value; default 1, 0 = hardware threads;\n"
      "                      env SWSIM_CELL_JOBS)\n"
      "\n"
      "resilience flags (same commands):\n"
      "  --timeout <s>       per-job wall-clock budget (0 = none)\n"
      "  --max-retries <n>   retry budget for transient job failures\n"
      "  --retry-backoff <s> linear backoff between retry attempts\n"
      "  --inject <spec,...> arm deterministic faults (testing):\n"
      "                      throw:<label> | divergence:<label> |\n"
      "                      stall:<label>:<s> | nan:<step>\n"
      "\n"
      "observability flags (same commands; see docs/OBSERVABILITY.md):\n"
      "  --trace-out <f>     write Chrome trace_event JSON (Perfetto/\n"
      "                      chrome://tracing) of the solve\n"
      "  --metrics-out <f>   write the metrics registry as JSON\n"
      "  --log-json <f>      write structured events (watchdog trips,\n"
      "                      retries, quarantines, ...) as JSONL\n"
      "  --log-level <l>     debug|info|warn|error (default info;\n"
      "                      needs --log-json)\n"
      "  --profile-out <f>   write a swsim.profile/1 JSON performance\n"
      "                      profile of the run (throughput, term shares,\n"
      "                      cache hit rate, pool utilization, peak RSS)\n"
      "  --progress          live progress line on stderr (default: on\n"
      "                      when stderr is a terminal)\n"
      "  --no-progress       suppress the progress line\n";
  return 0;
}

engine::EngineConfig engine_config_from(const cli::Args& args) {
  engine::EngineConfig cfg;
  cfg.jobs = args.unsigned_integer("jobs", 0);
  cfg.cell_jobs = args.unsigned_integer("cell-jobs", 0);
  cfg.use_cache = !args.has("no-cache");
  cfg.spill_dir = args.value("cache-dir").value_or("");
  cfg.job_timeout_seconds = args.number("timeout", 0.0);
  if (cfg.job_timeout_seconds < 0.0) {
    throw std::invalid_argument("--timeout must be >= 0 seconds");
  }
  cfg.max_retries = args.unsigned_integer("max-retries", 0);
  cfg.retry_backoff_seconds = args.number("retry-backoff", 0.0);
  if (cfg.retry_backoff_seconds < 0.0) {
    throw std::invalid_argument("--retry-backoff must be >= 0 seconds");
  }
  return cfg;
}

// Arms the global fault plan from an --inject spec: comma-separated
//   throw:<label-substr>        job throws before running
//   divergence:<label-substr>   job fails as a numerical divergence
//   stall:<label-substr>:<s>    job sleeps s seconds (trips --timeout)
//   nan:<step>                  LLG stepper poisons a cell at that step
void arm_faults(const std::string& spec) {
  auto& plan = robust::FaultPlan::global();
  std::istringstream is(spec);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (item.empty()) continue;
    std::vector<std::string> parts;
    std::istringstream ps(item);
    std::string p;
    while (std::getline(ps, p, ':')) parts.push_back(p);
    if (parts.size() == 2 && parts[0] == "throw") {
      plan.inject_throw_in_job(parts[1]);
    } else if (parts.size() == 2 && parts[0] == "divergence") {
      plan.inject_divergence_in_job(parts[1]);
    } else if (parts.size() == 3 && parts[0] == "stall") {
      plan.inject_stall_in_job(parts[1], std::stod(parts[2]));
    } else if (parts.size() == 2 && parts[0] == "nan") {
      plan.inject_nan_at_step(std::stoul(parts[1]));
    } else {
      throw std::invalid_argument("--inject: bad fault spec '" + item +
                                  "' (want throw:<label>, "
                                  "divergence:<label>, stall:<label>:<s> "
                                  "or nan:<step>)");
    }
  }
}

void maybe_print_stats(const cli::Args& args,
                       const engine::BatchRunner& runner) {
  if (args.has("stats")) std::cout << '\n' << runner.stats().str();
}

// Observability sinks for one command invocation (all optional).
struct ObsOptions {
  std::string trace_out;
  std::string metrics_out;
  std::string log_json;
  std::string profile_out;
  bool progress = false;
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  double t0_us = 0.0;  // solve start (monotonic), the profile's wall basis
};

ObsOptions obs_options_from(const cli::Args& args) {
  ObsOptions o;
  o.trace_out = args.value("trace-out").value_or("");
  o.metrics_out = args.value("metrics-out").value_or("");
  o.log_json = args.value("log-json").value_or("");
  o.profile_out = args.value("profile-out").value_or("");
  if (args.has("progress") && args.has("no-progress")) {
    throw std::invalid_argument("--progress conflicts with --no-progress");
  }
  // Default: live progress only when a human is watching stderr, so piped
  // and logged runs stay byte-clean without needing the flag.
  o.progress = args.has("progress") ||
               (!args.has("no-progress") &&
                obs::ProgressReporter::stderr_is_tty());
  // Conflicting combinations are usage errors, caught before any solve:
  // --serial bypasses the engine whose spans/counters the sinks observe,
  // and --stats + --metrics-out would double-report the same counters.
  if (args.has("serial") && !o.trace_out.empty()) {
    throw std::invalid_argument(
        "--trace-out instruments the engine path, which --serial bypasses "
        "(drop --serial)");
  }
  if (args.has("serial") && !o.metrics_out.empty()) {
    throw std::invalid_argument(
        "--metrics-out instruments the engine path, which --serial bypasses "
        "(drop --serial)");
  }
  if (args.has("serial") && !o.profile_out.empty()) {
    throw std::invalid_argument(
        "--profile-out profiles the engine path, which --serial bypasses "
        "(drop --serial)");
  }
  if (args.has("stats") && !o.metrics_out.empty()) {
    throw std::invalid_argument(
        "--metrics-out and --stats double-report the engine counters "
        "(pick one)");
  }
  if (const auto level = args.value("log-level")) {
    if (o.log_json.empty()) {
      throw std::invalid_argument("--log-level requires --log-json <file>");
    }
    o.log_level = obs::parse_log_level(*level);
  } else if (args.has("log-level")) {
    throw std::invalid_argument(
        "--log-level needs a value (debug|info|warn|error)");
  }
  o.t0_us = obs::now_us();
  return o;
}

// Arms the requested sinks. Metrics are reset on arming so a dump covers
// exactly this command, not whatever a previous library user recorded.
void arm_observability(const ObsOptions& o) {
  if (!o.trace_out.empty()) obs::TraceSession::global().start();
  if (!o.metrics_out.empty() || !o.profile_out.empty()) {
    // --profile-out aggregates the same counters a --metrics-out dump
    // exports, so either flag arms (and scopes) the registry.
    obs::MetricsRegistry::global().reset();
    obs::MetricsRegistry::arm();
  }
  if (!o.log_json.empty()) {
    obs::EventLog::global().open(o.log_json, o.log_level);
  }
  if (o.progress) obs::ProgressReporter::global().enable();
}

// Flushes the sinks to their files. Returns 0, or 1 when a sink file could
// not be written (the solve itself already succeeded by this point).
int finish_observability(const ObsOptions& o) {
  int rc = 0;
  std::string error;
  if (o.progress) obs::ProgressReporter::global().finish();
  if (!o.profile_out.empty()) {
    const double wall_s = (obs::now_us() - o.t0_us) * 1e-6;
    const auto profile = obs::RunProfile::collect(wall_s);
    if (!obs::write_json_file(o.profile_out, profile.to_json(), &error)) {
      std::cerr << "error: --profile-out: " << error << '\n';
      rc = 1;
    } else {
      std::cout << "profile -> " << o.profile_out << '\n';
    }
    if (o.metrics_out.empty()) obs::MetricsRegistry::disarm();
  }
  if (!o.trace_out.empty()) {
    auto& session = obs::TraceSession::global();
    session.stop();
    const std::size_t events = session.event_count();
    if (!session.write_chrome_json(o.trace_out, &error)) {
      std::cerr << "error: --trace-out: " << error << '\n';
      rc = 1;
    } else {
      std::cout << "trace: " << events << " events -> " << o.trace_out
                << '\n';
    }
  }
  if (!o.metrics_out.empty()) {
    obs::MetricsRegistry::disarm();
    if (!obs::MetricsRegistry::global().write_json(o.metrics_out, &error)) {
      std::cerr << "error: --metrics-out: " << error << '\n';
      rc = 1;
    } else {
      std::cout << "metrics -> " << o.metrics_out << '\n';
    }
  }
  if (!o.log_json.empty()) obs::EventLog::global().close();
  return rc;
}

// Gate geometry from CLI flags. The spec construction itself (factories,
// cache keys) lives in serve/workload.h, shared with the serve daemon so
// both front-ends are byte-identical by construction.
serve::GateParams gate_params_from(const std::string& kind,
                                   const cli::Args& args) {
  serve::GateParams p;
  p.kind = kind;
  p.lambda_nm = args.number("lambda", 55.0);
  if (args.value("width")) p.width_nm = args.number("width", 0.0);
  return p;
}

std::optional<serve::TruthTableSpec> make_gate_spec(const std::string& kind,
                                                    const cli::Args& args) {
  return serve::make_truth_table_spec(gate_params_from(kind, args));
}

int cmd_truthtable(const cli::Args& args) {
  if (args.positional().empty()) {
    std::cerr << "truthtable: missing gate name\n";
    return 2;
  }
  const std::string kind = args.positional()[0];
  const auto spec = make_gate_spec(kind, args);
  if (!spec) {
    std::cerr << "truthtable: unknown gate '" << kind << "'\n";
    return 2;
  }

  const ObsOptions obs_opts = obs_options_from(args);
  arm_observability(obs_opts);
  core::ValidationReport report;
  if (args.has("serial")) {
    const auto gate = spec->factory();
    report = core::validate_gate(*gate);
    std::cout << core::format_report(report);
  } else {
    engine::BatchRunner runner(engine_config_from(args));
    report = runner.run_truth_table(spec->factory, spec->key);
    std::cout << core::format_report(report);
    maybe_print_stats(args, runner);
  }
  const int obs_rc = finish_observability(obs_opts);
  if (obs_rc != 0) return obs_rc;
  return report.all_pass ? 0 : 1;
}

int cmd_dispersion(const cli::Args& args) {
  mag::Material mat = mag::Material::fecob();
  const auto name = args.value("material").value_or("fecob");
  if (name == "yig") mat = mag::Material::yig();
  else if (name == "permalloy") mat = mag::Material::permalloy();
  else if (name != "fecob") {
    std::cerr << "dispersion: unknown material '" << name << "'\n";
    return 2;
  }
  const double thickness = nm(args.number("thickness", 1.0));
  const double applied = ka_per_m(args.number("applied", 0.0));
  const wavenet::Dispersion disp(mat, thickness, applied);

  Table t({"lambda (nm)", "f (GHz)", "v_g (m/s)", "L_att (um)"});
  for (double l : {500.0, 250.0, 125.0, 80.0, 55.0, 40.0, 30.0, 20.0}) {
    const double k = wavenet::Dispersion::k_of_lambda(nm(l));
    t.add_row({Table::num(l, 0), Table::num(to_ghz(disp.frequency(k)), 2),
               Table::num(disp.group_velocity(k), 0),
               Table::num(disp.attenuation_length(k) * 1e6, 2)});
  }
  std::cout << mat.name << ", t = " << to_nm(thickness) << " nm, FMR floor "
            << Table::num(to_ghz(disp.frequency(0)), 2) << " GHz\n\n"
            << t.str();
  return 0;
}

// The yield workload description shared by cmd_yield and cmd_batch. The
// gate is named either positionally ("yield xor ...", batch-file style) or
// via --gate (the historical standalone spelling); positional wins.
serve::YieldParams yield_params_from(const cli::Args& args) {
  serve::YieldParams p;
  p.kind = !args.positional().empty() ? args.positional()[0]
                                      : args.value("gate").value_or("maj");
  p.lambda_nm = args.number("lambda", 55.0);
  if (args.value("width")) p.width_nm = args.number("width", 0.0);
  p.sigma_length_nm = args.number("sigma-length", 2.0);
  p.sigma_amp = args.number("sigma-amp", 0.05);
  p.trials = static_cast<std::size_t>(args.integer("trials", 500));
  return p;
}

std::optional<serve::YieldSpec> make_yield_spec(const cli::Args& args) {
  return serve::make_yield_spec(yield_params_from(args));
}

void print_yield(const std::string& kind, const core::YieldReport& r) {
  std::cout << serve::render_yield(kind, r);
}

int cmd_yield(const cli::Args& args) {
  const auto spec = make_yield_spec(args);
  if (!spec) {
    std::cerr << "yield: unknown gate\n";
    return 2;
  }

  const ObsOptions obs_opts = obs_options_from(args);
  arm_observability(obs_opts);
  core::YieldReport r;
  if (args.has("serial")) {
    const auto gate = spec->factory();
    r = core::estimate_yield(*gate, spec->model, spec->trials);
  } else {
    engine::BatchRunner runner(engine_config_from(args));
    r = runner.run_yield(spec->factory, spec->model, spec->trials);
    print_yield(spec->kind, r);
    maybe_print_stats(args, runner);
    return finish_observability(obs_opts);
  }
  print_yield(spec->kind, r);
  return finish_observability(obs_opts);
}

int cmd_compare() {
  const perf::Comparison cmp;
  Table t({"design", "function", "cells", "delay (ns)", "energy (aJ)"});
  for (const auto& row : cmp.rows()) {
    t.add_row({row.design, row.function, std::to_string(row.cells),
               Table::num(to_ns(row.delay), 2),
               Table::num(to_aj(row.energy), 1)});
  }
  std::cout << t.str();
  const auto h = cmp.headlines();
  std::cout << "\nMAJ saving vs ladder: " << Table::num(
                   h.maj_saving_vs_ladder * 100, 0)
            << "%   XOR saving vs ladder: "
            << Table::num(h.xor_saving_vs_ladder * 100, 0) << "%\n";
  return 0;
}

int cmd_micromag(const cli::Args& args) {
  // Built through the same spec the serve daemon uses, so the CLI and a
  // served "micromag" request share one configuration (and cache key).
  serve::MicromagParams params;
  params.kind = args.has("xor") ? "xor" : "maj";
  params.lambda_nm = args.number("lambda", 50.0);
  params.width_nm = args.number("width", 20.0);
  params.cell_nm = args.number("cell", 4.0);
  params.early_stop = args.has("early-stop");
  const auto spec = serve::make_micromag_spec(params);
  const core::MicromagGateConfig& cfg = spec->config;
  const ObsOptions obs_opts = obs_options_from(args);
  arm_observability(obs_opts);
  // Early stop reports its savings through PhysicsRegistry, which records
  // only while metrics are armed — arm them for the run regardless of
  // --metrics-out so the console line below is meaningful.
  if (params.early_stop) obs::MetricsRegistry::arm();

  {
    // Banner from a probe instance (construction is cheap; no LLG run).
    const core::MicromagTriangleGate probe(cfg);
    std::cout << "running LLG truth table (" << (1u << probe.num_inputs())
              << " patterns + calibration, f = "
              << Table::num(to_ghz(probe.drive_frequency()), 1)
              << " GHz)...\n";
  }

  core::ValidationReport report;
  std::unique_ptr<engine::BatchRunner> runner;
  if (args.has("serial")) {
    core::MicromagTriangleGate gate(cfg);
    report = core::validate_gate(gate);
  } else {
    engine::EngineConfig ecfg = engine_config_from(args);
    // Seeded physics (thermal noise, edge roughness) must not be served
    // from the cache: the seed is part of the sample, and sweeps want
    // fresh draws.
    if (cfg.temperature > 0.0 || cfg.roughness.has_value()) {
      ecfg.use_cache = false;
    }
    runner = std::make_unique<engine::BatchRunner>(ecfg);
    report = runner->run_truth_table(spec->factory, spec->key, spec->prepare);
  }
  std::cout << core::format_report(report);
  if (params.early_stop) {
    const auto phys = obs::PhysicsRegistry::global().snapshot();
    std::cout << "early stop saved " << phys.early_stop_saved_steps
              << " integration steps\n";
  }
  if (runner) maybe_print_stats(args, *runner);
  const int obs_rc = finish_observability(obs_opts);
  if (obs_rc != 0) return obs_rc;
  return report.all_pass ? 0 : 1;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  std::string tok;
  while (is >> tok) tokens.push_back(tok);
  return tokens;
}

// Runs a job-list file through one shared engine: every line is a
// `truthtable ...` or `yield ...` command (same flags as the standalone
// commands); '#' starts a comment. Identical configurations across lines
// are solved once — the cache turns a sweep with repeated geometries into
// incremental work. Results land in a CSV (--out) or a console table.
//
// Fault tolerance: lines run through the engine's checked entry points.
// A line whose jobs fail (divergence, injected fault, timeout) gets a
// non-ok status column and a row in the failure report (printed, or
// written to --report <csv>), while every healthy line's results are
// returned as usual. The exit code ignores failed lines unless
// --fail-fast is given, which stops at the first failed line and exits
// nonzero.
int cmd_batch(const cli::Args& args) {
  if (args.positional().empty()) {
    std::cerr << "batch: missing job-list file\n";
    return 2;
  }
  std::ifstream in(args.positional()[0]);
  if (!in) {
    std::cerr << "batch: cannot open '" << args.positional()[0] << "'\n";
    return 2;
  }
  const bool fail_fast = args.has("fail-fast");
  if (const auto inject = args.value("inject")) arm_faults(*inject);
  const ObsOptions obs_opts = obs_options_from(args);
  arm_observability(obs_opts);

  // ^C / SIGTERM: trip the process-wide cancel (in-flight jobs stop at
  // their next poll point), stop reading lines, then fall through to the
  // normal epilogue so partial results, the failure report, and every
  // armed observability sink are still flushed. Exit code 130 marks the
  // interrupted-but-flushed outcome.
  auto& shutdown_signal = robust::ShutdownSignal::global();
  shutdown_signal.install(robust::ShutdownConfig{});

  engine::BatchRunner runner(engine_config_from(args));
  const std::vector<std::string> headers = {
      "line", "command", "gate",          "lambda_nm", "all_pass",
      "yield", "max_asymmetry", "min_margin", "mean_worst_margin",
      "status"};
  std::vector<std::vector<std::string>> results;
  robust::FailureReport failures;

  std::string line;
  std::size_t line_no = 0;
  bool all_ok = true;
  bool aborted = false;
  bool interrupted = false;
  while (std::getline(in, line)) {
    if (shutdown_signal.requested()) {
      interrupted = true;
      break;
    }
    ++line_no;
    const auto hash_pos = line.find('#');
    if (hash_pos != std::string::npos) line = line.substr(0, hash_pos);
    auto tokens = tokenize(line);
    if (tokens.empty()) continue;

    std::vector<const char*> argv{"swsim"};
    for (const auto& t : tokens) argv.push_back(t.c_str());
    cli::Args job_args;
    try {
      job_args = cli::Args::parse(static_cast<int>(argv.size()), argv.data());
    } catch (const std::exception& e) {
      std::cerr << "batch: line " << line_no << ": " << e.what() << '\n';
      return 2;
    }

    const std::string label = "job " + std::to_string(line_no);
    bool line_ok = true;
    std::string status = "ok";
    if (job_args.command() == "truthtable") {
      if (job_args.positional().empty()) {
        std::cerr << "batch: line " << line_no << ": missing gate name\n";
        return 2;
      }
      const std::string kind = job_args.positional()[0];
      const auto spec = make_gate_spec(kind, job_args);
      if (!spec) {
        std::cerr << "batch: line " << line_no << ": unknown gate '" << kind
                  << "'\n";
        return 2;
      }
      const auto outcome =
          runner.run_truth_table_checked(spec->factory, spec->key, {}, label);
      line_ok = outcome.ok();
      if (!line_ok) {
        failures.merge(outcome.failures);
        status = to_string(outcome.failures.failures().front().status.code());
      }
      // Logic failures (a healthy solve whose table does not pass) drive
      // the exit code; solve failures are reported, not fatal, unless
      // --fail-fast.
      all_ok = all_ok && (!line_ok || outcome.report.all_pass);
      results.push_back({std::to_string(line_no), "truthtable", kind,
                         Table::num(job_args.number("lambda", 55.0), 1),
                         line_ok ? (outcome.report.all_pass ? "1" : "0") : "",
                         "",
                         Table::num(outcome.report.max_output_asymmetry, 6),
                         Table::num(outcome.report.min_margin, 6), "",
                         status});
    } else if (job_args.command() == "yield") {
      const auto spec = make_yield_spec(job_args);
      if (!spec) {
        std::cerr << "batch: line " << line_no << ": unknown gate\n";
        return 2;
      }
      const auto outcome = runner.run_yield_checked(spec->factory,
                                                    spec->model, spec->trials,
                                                    label);
      line_ok = outcome.ok();
      if (!line_ok) {
        failures.merge(outcome.failures);
        status = to_string(outcome.failures.failures().front().status.code());
      }
      results.push_back({std::to_string(line_no), "yield", spec->kind,
                         Table::num(job_args.number("lambda", 55.0), 1), "",
                         Table::num(outcome.report.yield, 6), "", "",
                         Table::num(outcome.report.mean_worst_margin, 6),
                         status});
    } else {
      std::cerr << "batch: line " << line_no << ": unknown command '"
                << job_args.command() << "' (want truthtable|yield)\n";
      return 2;
    }

    if (!line_ok && fail_fast) {
      std::cerr << "batch: line " << line_no
                << " failed, stopping (--fail-fast)\n";
      aborted = true;
      break;
    }
  }

  if (const auto out = args.value("out")) {
    io::CsvWriter csv(*out);
    csv.write_row(headers);
    for (const auto& row : results) csv.write_row(row);
    std::cout << "batch: " << results.size() << " jobs -> " << *out << '\n';
  } else {
    Table t(headers);
    for (auto& row : results) t.add_row(std::move(row));
    std::cout << t.str();
  }
  if (!failures.empty()) {
    std::cout << '\n' << failures.str();
    if (const auto report_path = args.value("report")) {
      io::CsvWriter csv(*report_path);
      csv.write_row(robust::FailureReport::csv_header());
      for (const auto& row : failures.csv_rows()) csv.write_row(row);
      std::cout << "batch: failure report -> " << *report_path << '\n';
    }
  }
  maybe_print_stats(args, runner);
  const int obs_rc = finish_observability(obs_opts);
  if (interrupted) {
    std::cerr << "batch: interrupted by signal after " << results.size()
              << " line" << (results.size() == 1 ? "" : "s")
              << "; partial results and reports were written\n";
    return 130;
  }
  if (obs_rc != 0) return obs_rc;
  if (aborted) return 1;
  return all_ok ? 0 : 1;
}

std::string read_file(const std::string& path, const char* cmd) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(std::string(cmd) + ": cannot open '" + path +
                             "'");
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Quantile estimate from an exported histogram's [[le, n], ...] buckets —
// the offline mirror of obs::Histogram::Snapshot::quantile (the overflow
// "inf" bucket reports its lower bound).
double quantile_from_buckets(const std::vector<double>& bounds,
                             const std::vector<double>& counts,
                             double total, double q) {
  if (total <= 0.0) return 0.0;
  const double target = q * total;
  double seen = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (seen + counts[i] < target) {
      seen += counts[i];
      continue;
    }
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    if (i >= bounds.size()) return lo;  // overflow bucket
    if (counts[i] <= 0.0) return bounds[i];
    return lo + (bounds[i] - lo) * ((target - seen) / counts[i]);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

// Parses a dump file for stats/trace-check with invalid-input semantics:
// an empty file or malformed JSON (e.g. a dump truncated by a crash or a
// full disk) is exit code 2 with the parser's positioned message, the same
// class as a usage error — NOT a clean exit that would let a gating script
// mistake a dead dump for a healthy empty one.
std::optional<obs::JsonValue> parse_dump(const std::string& path,
                                         const char* cmd) {
  const std::string text = read_file(path, cmd);
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
    std::cerr << cmd << ": '" << path << "': empty file (was the run "
              << "interrupted before the dump was flushed?)\n";
    return std::nullopt;
  }
  try {
    return obs::parse_json(text);
  } catch (const std::exception& e) {
    std::cerr << cmd << ": '" << path << "': " << e.what()
              << " (truncated dump?)\n";
    return std::nullopt;
  }
}

// A registry metric name as a Prometheus metric name: [a-zA-Z0-9_:] only,
// "swsim_" prefix so the whole family is namespaced in a shared scrape.
std::string prom_name(const std::string& name) {
  std::string out = "swsim_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

// Renders a metrics dump as Prometheus text exposition (format 0.0.4):
// counters/gauges as single samples, histograms as the _bucket/_sum/_count
// triple with *cumulative* le buckets (the dump stores per-bucket counts).
int print_prometheus(const obs::JsonValue& counters,
                     const obs::JsonValue& gauges,
                     const obs::JsonValue& histograms) {
  const auto num = [](const obs::JsonValue& v) {
    // A histogram sum that took a NaN or infinite sample is dumped as null.
    return v.is_number() ? obs::format_number(v.number()) : "NaN";
  };
  std::ostringstream os;
  for (const auto& [name, v] : counters.object()) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " counter\n" << n << " " << num(v) << "\n";
  }
  for (const auto& [name, v] : gauges.object()) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " gauge\n" << n << " " << num(v) << "\n";
  }
  for (const auto& [name, h] : histograms.object()) {
    const auto* count = h.find("count");
    const auto* sum = h.find("sum");
    const auto* buckets = h.find("buckets");
    if (!count || !sum || !buckets || !buckets->is_array()) {
      std::cerr << "stats: histogram '" << name << "' is malformed\n";
      return 2;
    }
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " histogram\n";
    double cumulative = 0.0;
    for (const auto& pair : buckets->array()) {
      if (!pair.is_array() || pair.array().size() != 2) {
        std::cerr << "stats: histogram '" << name << "' has a bad bucket\n";
        return 2;
      }
      const auto& le = pair.array()[0];
      cumulative += pair.array()[1].number();
      if (le.is_number()) {
        os << n << "_bucket{le=\"" << num(le) << "\"} "
           << obs::format_number(cumulative) << "\n";
      }
    }
    os << n << "_bucket{le=\"+Inf\"} " << num(*count) << "\n"
       << n << "_sum " << num(*sum) << "\n"
       << n << "_count " << num(*count) << "\n";
  }
  std::cout << os.str();
  return 0;
}

// Pretty-prints a --metrics-out dump as console tables.
int cmd_stats(const cli::Args& args) {
  if (args.positional().empty()) {
    std::cerr << "stats: missing metrics file (from --metrics-out)\n";
    return 2;
  }
  const std::string path = args.positional()[0];
  const auto parsed = parse_dump(path, "stats");
  if (!parsed) return 2;
  const obs::JsonValue& root = *parsed;
  const auto* counters = root.find("counters");
  const auto* gauges = root.find("gauges");
  const auto* histograms = root.find("histograms");
  if (!counters || !gauges || !histograms || !counters->is_object() ||
      !gauges->is_object() || !histograms->is_object()) {
    std::cerr << "stats: '" << path
              << "' is not a swsim metrics dump (missing counters/gauges/"
                 "histograms)\n";
    return 2;
  }
  if (counters->object().empty() && gauges->object().empty() &&
      histograms->object().empty()) {
    std::cerr << "stats: '" << path << "': dump contains no metrics (was "
              << "the registry armed? see --metrics-out)\n";
    return 2;
  }
  if (args.has("prom")) {
    return print_prometheus(*counters, *gauges, *histograms);
  }

  Table scalars({"metric", "value"});
  std::size_t n_scalars = 0;
  for (const auto& [name, v] : counters->object()) {
    scalars.add_row({name, Table::num(v.number(), 0)});
    ++n_scalars;
  }
  for (const auto& [name, v] : gauges->object()) {
    scalars.add_row({name, Table::num(v.number(), 0)});
    ++n_scalars;
  }
  if (n_scalars > 0) std::cout << scalars.str();

  if (!histograms->object().empty()) {
    Table ht({"histogram", "count", "mean", "p50", "p90", "p99"});
    for (const auto& [name, h] : histograms->object()) {
      const auto* count = h.find("count");
      const auto* sum = h.find("sum");
      const auto* buckets = h.find("buckets");
      if (!count || !sum || !buckets || !buckets->is_array()) {
        std::cerr << "stats: histogram '" << name << "' is malformed\n";
        return 2;
      }
      std::vector<double> bounds, bucket_counts;
      for (const auto& pair : buckets->array()) {
        if (!pair.is_array() || pair.array().size() != 2) {
          std::cerr << "stats: histogram '" << name << "' has a bad bucket\n";
          return 2;
        }
        const auto& le = pair.array()[0];
        if (le.is_number()) bounds.push_back(le.number());
        bucket_counts.push_back(pair.array()[1].number());
      }
      const double total = count->number();
      // A sum that took a NaN or infinite sample is dumped as null.
      const double sum_value = sum->is_number() ? sum->number() : std::nan("");
      const double mean = total > 0.0 ? sum_value / total : 0.0;
      ht.add_row(
          {name, Table::num(total, 0), Table::num(mean, 6),
           Table::num(quantile_from_buckets(bounds, bucket_counts, total,
                                            0.50), 6),
           Table::num(quantile_from_buckets(bounds, bucket_counts, total,
                                            0.90), 6),
           Table::num(quantile_from_buckets(bounds, bucket_counts, total,
                                            0.99), 6)});
    }
    std::cout << '\n' << ht.str();
  }
  return 0;
}

// Validates a --trace-out file: parseable JSON, the Chrome trace_event
// wrapper shape, and well-formed X (complete), M (metadata) and s/t/f
// (flow) events — including files produced by `swsim trace merge`, where
// events span several pids. The structural half of the acceptance check
// scripts/check.sh runs after a traced batch.
int cmd_trace_check(const cli::Args& args) {
  if (args.positional().empty()) {
    std::cerr << "trace-check: missing trace file (from --trace-out)\n";
    return 2;
  }
  const std::string path = args.positional()[0];
  const auto parsed = parse_dump(path, "trace-check");
  if (!parsed) return 2;
  const obs::JsonValue& root = *parsed;
  const auto* events = root.find("traceEvents");
  if (!events || !events->is_array()) {
    std::cerr << "trace-check: '" << path
              << "': missing \"traceEvents\" array\n";
    return 2;
  }
  std::size_t complete = 0, metadata = 0, flows = 0;
  std::vector<std::pair<double, double>> pid_tids;  // distinct (pid, tid)
  std::vector<double> pids;
  for (std::size_t i = 0; i < events->array().size(); ++i) {
    const auto& e = events->array()[i];
    const auto fail = [&](const std::string& why) {
      std::cerr << "trace-check: event #" << i << ": " << why << '\n';
      return 2;
    };
    if (!e.is_object()) return fail("not an object");
    const auto* ph = e.find("ph");
    const auto* name = e.find("name");
    const auto* tid = e.find("tid");
    if (!ph || !ph->is_string()) return fail("missing \"ph\"");
    if (!name || !name->is_string()) return fail("missing \"name\"");
    if (!tid || !tid->is_number()) return fail("missing \"tid\"");
    const double pid = [&] {
      const auto* p = e.find("pid");
      return p && p->is_number() ? p->number() : 1.0;
    }();
    if (std::find(pids.begin(), pids.end(), pid) == pids.end()) {
      pids.push_back(pid);
    }
    if (ph->str() == "M") {
      ++metadata;
      continue;
    }
    const std::string& phase = ph->str();
    const bool is_flow = phase == "s" || phase == "t" || phase == "f";
    if (phase != "X" && !is_flow) {
      return fail("unexpected phase '" + phase + "'");
    }
    const auto* ts = e.find("ts");
    if (!ts || !ts->is_number() || ts->number() < 0.0) {
      return fail("bad \"ts\"");
    }
    if (is_flow) {
      // Flow events carry the arrow id instead of a duration; we export it
      // as a hex string so 64-bit ids survive JSON doubles.
      const auto* id = e.find("id");
      if (!id || (!id->is_string() && !id->is_number())) {
        return fail("flow event without \"id\"");
      }
      ++flows;
    } else {
      const auto* dur = e.find("dur");
      if (!dur || !dur->is_number() || dur->number() < 0.0) {
        return fail("bad \"dur\"");
      }
      ++complete;
    }
    const std::pair<double, double> key{pid, tid->number()};
    if (std::find(pid_tids.begin(), pid_tids.end(), key) == pid_tids.end()) {
      pid_tids.push_back(key);
    }
  }
  if (complete == 0) {
    // A trace with no complete events means the session never recorded a
    // span — "valid JSON" is not the same as "a trace of a run".
    std::cerr << "trace-check: '" << path << "': no complete (ph=X) events "
              << "(was tracing armed for the whole run?)\n";
    return 2;
  }
  std::cout << "trace OK: " << complete << " complete events, " << flows
            << " flow events, " << metadata << " metadata events, "
            << pid_tids.size() << " thread"
            << (pid_tids.size() == 1 ? "" : "s") << " across " << pids.size()
            << " process" << (pids.size() == 1 ? "" : "es") << '\n';
  return 0;
}

// ---------------------------------------------------------------------------
// swsim trace merge — join traces exported by different processes (the
// client's --trace-out, the daemon's) onto one timeline. The rebase logic
// lives in obs::merge_trace_dumps; this wrapper only does file I/O.

int cmd_trace_merge(const cli::Args& args) {
  const auto out_path = args.value("out");
  if (!out_path) {
    std::cerr << "trace merge: --out <merged.json> is required\n";
    return 2;
  }
  std::vector<std::string> inputs(args.positional().begin() + 1,
                                  args.positional().end());
  if (inputs.empty()) {
    std::cerr << "trace merge: need at least one trace file\n";
    return 2;
  }

  std::vector<obs::JsonValue> docs;
  docs.reserve(inputs.size());
  for (const auto& p : inputs) {
    auto doc = parse_dump(p, "trace merge");
    if (!doc) return 2;
    docs.push_back(std::move(*doc));
  }
  std::vector<std::pair<std::string, const obs::JsonValue*>> refs;
  refs.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    refs.emplace_back(inputs[i], &docs[i]);
  }

  obs::TraceMergeStats stats;
  std::string merged;
  try {
    merged = obs::merge_trace_dumps(refs, &stats);
  } catch (const std::exception& ex) {
    std::cerr << "trace merge: " << ex.what() << '\n';
    return 2;
  }

  std::string error;
  if (!obs::write_json_file(*out_path, merged, &error)) {
    std::cerr << "trace merge: " << error << '\n';
    return 1;
  }
  std::cout << "merged " << stats.files << " traces (" << stats.events
            << " events) -> " << *out_path << '\n';
  return 0;
}

int cmd_trace(const cli::Args& args) {
  if (args.positional().empty()) {
    std::cerr << "trace: missing subcommand (merge)\n";
    return 2;
  }
  if (args.positional()[0] == "merge") return cmd_trace_merge(args);
  std::cerr << "trace: unknown subcommand '" << args.positional()[0]
            << "' (want merge)\n";
  return 2;
}

// ---------------------------------------------------------------------------
// swsim version / serve / client — the long-lived service front-end
// (protocol swsim.serve/1, see docs/SERVING.md).

int cmd_version() {
  std::cout << serve::describe(serve::build_info());
  return 0;
}

int cmd_serve(const cli::Args& args) {
  serve::ServerConfig cfg;
  cfg.socket_path = args.value("socket").value_or("");
  cfg.tcp_port = static_cast<int>(args.integer("port", 0));
  cfg.dispatchers = args.unsigned_integer("dispatchers", 2);
  cfg.queue_capacity = args.unsigned_integer("queue", 64);
  cfg.max_sessions = args.unsigned_integer("max-sessions", 64);
  cfg.retry_after_s = args.number("retry-after", 0.5);
  if (cfg.retry_after_s < 0.0) {
    throw std::invalid_argument("--retry-after must be >= 0 seconds");
  }
  cfg.idle_timeout_s = args.number("idle-timeout", 300.0);
  cfg.frame_timeout_s = args.number("frame-timeout", 30.0);
  cfg.default_deadline_s = args.number("default-deadline", 0.0);
  cfg.max_deadline_s = args.number("max-deadline", 0.0);
  if (cfg.idle_timeout_s < 0.0 || cfg.frame_timeout_s < 0.0 ||
      cfg.default_deadline_s < 0.0 || cfg.max_deadline_s < 0.0) {
    throw std::invalid_argument("serve timeouts/deadlines must be >= 0");
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
  if (!trace_out.empty()) {
    auto& session = obs::TraceSession::global();
    session.stop();
    const std::size_t events = session.event_count();
    std::string error;
    if (!session.write_chrome_json(trace_out, &error)) {
      std::cerr << "serve: --trace-out: " << error << '\n';
      return rc == 0 ? 1 : rc;
    }
    std::cout << "serve: trace: " << events << " events -> " << trace_out
              << '\n';
  }
  return rc;
}

// Exit codes: 0 success (truthtable additionally requires all_pass), 1
// remote failure / logic fail / verify mismatch, 2 usage, 3 retryable
// rejection (overloaded or draining, single attempt), 4 connect/transport
// error, 5 deadline exceeded or retry attempts exhausted. 5 is the "your
// budget ran out" signal: scripts treat it as try-later-with-more-budget,
// distinct from both a hard failure (1) and a dead transport (4).
constexpr int kClientExitDeadline = 5;

int cmd_client(const cli::Args& args) {
  if (args.positional().empty()) {
    std::cerr << "client: missing request type "
                 "(hello|healthz|metrics|truthtable|yield)\n";
    return 2;
  }
  const std::string& type = args.positional()[0];
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
    serve::YieldParams p;
    p.kind = args.positional().size() > 1 ? args.positional()[1]
                                          : args.value("gate").value_or("maj");
    p.lambda_nm = args.number("lambda", 55.0);
    if (args.value("width")) p.width_nm = args.number("width", 0.0);
    p.sigma_length_nm = args.number("sigma-length", 2.0);
    p.sigma_amp = args.number("sigma-amp", 0.05);
    p.trials = static_cast<std::size_t>(args.integer("trials", 500));
    request.yield = p;
  } else if (type == "micromag") {
    request.type = serve::RequestType::kMicromag;
    serve::MicromagParams p;
    p.kind = args.positional().size() > 1 ? args.positional()[1]
                                          : args.value("gate").value_or("maj");
    p.lambda_nm = args.number("lambda", 50.0);
    p.width_nm = args.number("width", 20.0);
    p.cell_nm = args.number("cell", 4.0);
    p.early_stop = args.has("early-stop");
    request.micromag = p;
  } else {
    std::cerr << "client: unknown request type '" << type
              << "' (want hello|healthz|metrics|truthtable|yield|micromag)\n";
    return 2;
  }

  const std::string socket_path = args.value("socket").value_or("");
  const int tcp_port = static_cast<int>(args.integer("port", 0));
  if (socket_path.empty() && !args.value("port")) {
    std::cerr << "client: need --socket <path> or --port <n>\n";
    return 2;
  }

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
        serve::run_chaos(profile, socket_path, tcp_port, request);
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
    obs::Span span("client.request " + type, "client",
                   obs::JsonWriter()
                       .begin_object()
                       .field("trace_id", trace_id)
                       .end_object()
                       .take());
    obs::record_flow("client.request", "client", request.flow_id(), 's');
    status = serve::call_with_retries(socket_path, tcp_port, request, policy,
                                      &response, &stats);
  }
  if (!trace_out.empty()) {
    auto& session = obs::TraceSession::global();
    session.stop();
    const std::size_t events = session.event_count();
    std::string error;
    // Reporting on stderr keeps stdout byte-identical to an untraced call.
    if (!session.write_chrome_json(trace_out, &error)) {
      std::cerr << "client: --trace-out: " << error << '\n';
    } else {
      std::cerr << "client: trace: " << events << " events -> " << trace_out
                << " (trace id " << trace_id << ")\n";
    }
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
    // workload locally through the shared spec layer and require the
    // served text to be byte-identical.
    std::string local_text;
    if (request.type == serve::RequestType::kTruthTable) {
      const auto spec = serve::make_truth_table_spec(request.gate);
      if (!spec) {
        std::cerr << "client: --verify: unknown gate\n";
        return 2;
      }
      engine::BatchRunner runner(engine_config_from(args));
      local_text =
          core::format_report(runner.run_truth_table(spec->factory,
                                                     spec->key));
    } else if (request.type == serve::RequestType::kYield) {
      const auto spec = serve::make_yield_spec(request.yield);
      if (!spec) {
        std::cerr << "client: --verify: unknown gate\n";
        return 2;
      }
      engine::BatchRunner runner(engine_config_from(args));
      local_text = serve::render_yield(
          spec->kind,
          runner.run_yield(spec->factory, spec->model, spec->trials));
    } else {
      std::cerr << "client: --verify applies to truthtable/yield requests\n";
      return 2;
    }
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

// ---------------------------------------------------------------------------
// swsim loadgen — the multi-tenant load generator (serve/loadgen.h) as a
// command against a live daemon. Prints a summary and writes
// BENCH_serve_throughput.json through the shared bench harness, so a
// loadgen run gates against the committed baseline exactly like the
// in-process bench binary (the case name matches the loop mode).

int cmd_loadgen(const cli::Args& args) {
  serve::LoadgenConfig cfg;
  cfg.socket_path = args.value("socket").value_or("");
  cfg.tcp_port = static_cast<int>(args.integer("port", 0));
  if (cfg.socket_path.empty() && !args.value("port")) {
    std::cerr << "loadgen: need --socket <path> or --port <n>\n";
    return 2;
  }
  const bool quick = args.has("quick");
  cfg.duration_s = args.number("duration", quick ? 2.0 : 10.0);
  cfg.max_requests = args.unsigned_integer("requests", 0);
  cfg.target_rps = args.number("rps", 0.0);
  cfg.concurrency = args.unsigned_integer("concurrency", 4);
  cfg.seed = args.unsigned_integer("seed", 1);
  cfg.yield_trials = args.unsigned_integer("trials", 40);
  cfg.deadline_s = args.number("deadline", 0.0);
  cfg.call_timeout_s = args.number("call-timeout", 30.0);
  cfg.tenant_prefix = args.value("tenant").value_or("loadgen");
  cfg.trace_id = args.value("trace-id").value_or("");
  if (const auto mix = args.value("mix")) {
    // --mix tt:yield:hello, e.g. "6:2:2" (any non-negative scale).
    double w[3] = {0.0, 0.0, 0.0};
    std::istringstream ms(*mix);
    std::string part;
    std::size_t i = 0;
    bool bad = false;
    for (; i < 3 && std::getline(ms, part, ':'); ++i) {
      try {
        w[i] = std::stod(part);
      } catch (const std::exception&) {
        bad = true;
        break;
      }
    }
    std::string rest;
    if (bad || i != 3 || std::getline(ms, rest, ':') || w[0] < 0.0 ||
        w[1] < 0.0 || w[2] < 0.0) {
      std::cerr << "loadgen: --mix wants three non-negative weights "
                   "'tt:yield:hello' (e.g. 6:2:2)\n";
      return 2;
    }
    cfg.weight_truthtable = w[0];
    cfg.weight_yield = w[1];
    cfg.weight_hello = w[2];
  }

  const bool open_loop = cfg.target_rps > 0.0;
  std::cout << "loadgen: " << (open_loop ? "open" : "closed") << " loop, "
            << cfg.concurrency << " tenants";
  if (open_loop) std::cout << ", target " << cfg.target_rps << " req/s";
  if (cfg.duration_s > 0.0) std::cout << ", " << cfg.duration_s << " s";
  if (cfg.max_requests > 0) std::cout << ", cap " << cfg.max_requests;
  std::cout << '\n' << std::flush;

  serve::LoadgenReport report;
  if (const auto st = serve::run_loadgen(cfg, &report); !st.is_ok()) {
    std::cerr << "loadgen: " << st.str() << '\n';
    return st.code() == robust::StatusCode::kInvalidConfig ? 2 : 4;
  }

  Table t({"figure", "value"});
  t.add_row({"sent", Table::num(static_cast<double>(report.sent), 0)});
  t.add_row({"completed",
             Table::num(static_cast<double>(report.completed), 0)});
  t.add_row({"ok", Table::num(static_cast<double>(report.ok), 0)});
  t.add_row({"shed (overloaded/draining)",
             Table::num(static_cast<double>(report.shed), 0)});
  t.add_row({"deadline exceeded",
             Table::num(static_cast<double>(report.deadline_exceeded), 0)});
  t.add_row({"failed", Table::num(static_cast<double>(report.failed), 0)});
  t.add_row({"transport errors",
             Table::num(static_cast<double>(report.transport_errors), 0)});
  t.add_row({"hung (> call timeout)",
             Table::num(static_cast<double>(report.hung), 0)});
  t.add_row({"mix tt/yield/hello",
             Table::num(static_cast<double>(report.truthtable), 0) + "/" +
                 Table::num(static_cast<double>(report.yield), 0) + "/" +
                 Table::num(static_cast<double>(report.hello), 0)});
  t.add_row({"wall [s]", Table::num(report.wall_s, 3)});
  t.add_row({"requests/s", Table::num(report.rps, 1)});
  t.add_row({"latency mean [s]", Table::num(report.mean_s, 6)});
  t.add_row({"latency p50 [s]", Table::num(report.p50_s, 6)});
  t.add_row({"latency p95 [s]", Table::num(report.p95_s, 6)});
  t.add_row({"latency p99 [s]", Table::num(report.p99_s, 6)});
  t.add_row({"latency p99.9 [s]", Table::num(report.p999_s, 6)});
  t.add_row({"latency max [s]", Table::num(report.max_s, 6)});
  std::cout << t.str();

  // The BENCH artifact, through the same harness as the bench binaries so
  // env fingerprinting and `bench diff/gate` semantics match. The harness
  // parses flags from argv; hand it a synthetic one.
  std::vector<std::string> hold = {"loadgen"};
  if (quick) hold.emplace_back("--quick");
  if (const auto out_dir = args.value("out-dir")) {
    hold.emplace_back("--out-dir");
    hold.emplace_back(*out_dir);
  }
  std::vector<char*> hargv;
  hargv.reserve(hold.size() + 1);
  for (auto& s : hold) hargv.push_back(s.data());
  hargv.push_back(nullptr);
  int hargc = static_cast<int>(hold.size());
  swsim::bench::Harness harness("serve_throughput", &hargc, hargv.data());
  harness.record_samples(
      open_loop ? "open_loop_latency" : "closed_loop_latency", "s",
      report.latencies_s);
  harness.add_scalar(open_loop ? "open_loop_rps" : "closed_loop_rps",
                     report.rps);
  if (open_loop) harness.add_scalar("open_loop_target_rps", cfg.target_rps);
  harness.add_scalar("p50_s", report.p50_s);
  harness.add_scalar("p95_s", report.p95_s);
  harness.add_scalar("p99_s", report.p99_s);
  harness.add_scalar("p999_s", report.p999_s);
  harness.add_scalar("max_s", report.max_s);
  harness.add_scalar("shed_rate", report.shed_rate());
  harness.add_scalar("hung", static_cast<double>(report.hung));
  harness.add_scalar("transport_errors",
                     static_cast<double>(report.transport_errors));
  if (!harness.finish()) return 1;

  if (report.hung > 0) {
    std::cerr << "loadgen: FAIL — " << report.hung << " exchange"
              << (report.hung == 1 ? "" : "s") << " hung past the "
              << cfg.call_timeout_s << " s call timeout\n";
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// swsim probe — physics telemetry: record a detector time series, export
// its spectrum, or tail the live envelope stream of a serve daemon.

// One LLG solve of the reduced-scale gate, detector series to CSV
// (columns probe,t,mx,my,mz — the input of `probe spectrum`).
int cmd_probe_record(const cli::Args& args) {
  const auto out = args.value("out");
  if (!out) {
    std::cerr << "probe record: missing --out <csv>\n";
    return 2;
  }
  serve::MicromagParams params;
  params.kind = args.has("xor") ? "xor" : "maj";
  params.lambda_nm = args.number("lambda", 50.0);
  params.width_nm = args.number("width", 20.0);
  params.cell_nm = args.number("cell", 4.0);
  const auto spec = serve::make_micromag_spec(params);
  core::MicromagTriangleGate gate(spec->config);

  std::vector<bool> inputs(gate.num_inputs(), false);
  if (const auto pattern = args.value("pattern")) {
    if (pattern->size() != inputs.size() ||
        pattern->find_first_not_of("01") != std::string::npos) {
      std::cerr << "probe record: --pattern wants " << inputs.size()
                << " bits of 0/1\n";
      return 2;
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      inputs[i] = (*pattern)[i] == '1';
    }
  }
  std::string bits;
  for (const bool b : inputs) bits += b ? '1' : '0';
  std::cout << "recording " << gate.name() << " " << bits
            << " (calibration + one LLG solve, f = "
            << Table::num(to_ghz(gate.drive_frequency()), 1) << " GHz)...\n";

  const core::MicromagEvaluation ev = gate.evaluate_full(inputs);
  io::CsvWriter csv(*out);
  csv.write_row({"probe", "t", "mx", "my", "mz"});
  std::size_t samples = 0;
  for (const auto& series : ev.probe_series) {
    for (std::size_t i = 0; i < series.t.size(); ++i) {
      // Round-trip-exact cells (Table::num would truncate; spectra
      // re-read these files).
      csv.write_row({series.name, obs::format_number(series.t[i]),
                     obs::format_number(series.mx[i]),
                     obs::format_number(series.my[i]),
                     obs::format_number(series.mz[i])});
      ++samples;
    }
  }
  std::cout << "wrote " << samples << " samples ("
            << ev.probe_series.size() << " probes) -> " << *out << '\n';
  return 0;
}

// FFT of a recorded series: reads a `probe record` CSV, periodogram of
// the chosen probe's m_x, prints the peak and optionally dumps
// frequency,power rows.
int cmd_probe_spectrum(const cli::Args& args) {
  if (args.positional().size() < 2) {
    std::cerr << "probe spectrum: missing <series.csv>\n";
    return 2;
  }
  const std::string& path = args.positional()[1];
  const std::string want = args.value("probe").value_or("");
  std::vector<std::vector<std::string>> rows;
  try {
    rows = io::read_csv(path);
  } catch (const std::exception& e) {
    std::cerr << "probe spectrum: " << e.what() << '\n';
    return 2;
  }
  if (rows.size() < 2 || rows[0].size() < 3 || rows[0][0] != "probe") {
    std::cerr << "probe spectrum: '" << path
              << "' is not a probe-series CSV (want probe,t,mx,... rows)\n";
    return 2;
  }
  // Default to the first probe in the file; rows of other probes are
  // skipped so a multi-probe recording works without --probe.
  std::string probe = want;
  std::vector<double> t;
  std::vector<double> mx;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() < 3) continue;
    if (probe.empty()) probe = rows[i][0];
    if (rows[i][0] != probe) continue;
    t.push_back(std::strtod(rows[i][1].c_str(), nullptr));
    mx.push_back(std::strtod(rows[i][2].c_str(), nullptr));
  }
  if (t.size() < 4) {
    std::cerr << "probe spectrum: probe '" << probe << "' has " << t.size()
              << " samples in '" << path << "' (need at least 4)\n";
    return 2;
  }
  const double dt = (t.back() - t.front()) / static_cast<double>(t.size() - 1);
  math::Spectrum spectrum;
  try {
    spectrum = math::power_spectrum(mx, dt);
  } catch (const std::exception& e) {
    std::cerr << "probe spectrum: " << e.what() << '\n';
    return 2;
  }
  if (const auto out = args.value("out")) {
    io::CsvWriter csv(*out);
    csv.write_row({"frequency", "power"});
    for (std::size_t i = 0; i < spectrum.frequency.size(); ++i) {
      csv.write_row({obs::format_number(spectrum.frequency[i]),
                     obs::format_number(spectrum.power[i])});
    }
    std::cout << "wrote " << spectrum.frequency.size() << " bins -> " << *out
              << '\n';
  }
  std::cout << "probe " << probe << ": " << t.size() << " samples, dt "
            << Table::num(dt * 1e12, 3) << " ps, peak "
            << Table::num(spectrum.peak_frequency() * 1e-9, 3) << " GHz\n";
  return 0;
}

// Live stream: subscribes to a daemon's probe hub and renders each
// envelope frame as one line until the stream ends.
int cmd_probe_tail(const cli::Args& args) {
  const std::string socket = args.value("socket").value_or("");
  const int port = static_cast<int>(args.integer("port", 0));
  if (socket.empty() && port <= 0) {
    std::cerr << "probe tail: need --socket <path> or --port <n>\n";
    return 2;
  }
  serve::Client client;
  robust::Status st =
      socket.empty() ? client.connect_tcp(port) : client.connect_unix(socket);
  if (!st.is_ok()) {
    std::cerr << "probe tail: " << st.str() << '\n';
    return 4;
  }
  serve::Request request;
  request.type = serve::RequestType::kProbeSubscribe;
  request.id = args.unsigned_integer("id", 1);
  request.client = args.value("client").value_or("probe-tail");
  request.probe_max_frames = args.unsigned_integer("max-frames", 0);
  request.probe_duration_s = args.number("duration", 0.0);
  request.probe_filter = args.value("probe").value_or("");

  serve::Response ack;
  if (st = client.call(request, &ack); !st.is_ok()) {
    std::cerr << "probe tail: " << st.str() << '\n';
    return 4;
  }
  if (!ack.status.is_ok()) {
    std::cerr << "probe tail: " << ack.status.str() << '\n';
    return 3;
  }
  std::cerr << "subscribed"
            << (request.probe_filter.empty()
                    ? std::string()
                    : " (probe " + request.probe_filter + ")")
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

int cmd_probe(const cli::Args& args) {
  if (args.positional().empty()) {
    std::cerr << "probe: missing subcommand (record|spectrum|tail)\n";
    return 2;
  }
  const std::string& sub = args.positional()[0];
  if (sub == "record") return cmd_probe_record(args);
  if (sub == "spectrum") return cmd_probe_spectrum(args);
  if (sub == "tail") return cmd_probe_tail(args);
  std::cerr << "probe: unknown subcommand '" << sub
            << "' (want record|spectrum|tail)\n";
  return 2;
}

// ---------------------------------------------------------------------------
// swsim bench — run the bench suite and compare/gate its BENCH_*.json
// artifacts (schema swsim.bench/1, written by the shared bench harness).

// Where the bench binaries live: next to this executable's build tree
// (build/cli/swsim -> build/bench), overridable with --bin-dir.
std::string default_bench_bin_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  const std::filesystem::path exe(buf);
  return (exe.parent_path().parent_path() / "bench").string();
}

int cmd_bench_list() {
  Table t({"name", "binary", "primary output", "runtime"});
  for (const auto& b : swsim::bench::bench_registry()) {
    t.add_row({b.name, std::string("bench_") + b.name, b.output,
               b.heavy ? "heavy (minutes full / --quick)" : "seconds"});
  }
  std::cout << t.str()
            << "\nrun with: swsim bench run <name...> [--quick]\n";
  return 0;
}

int cmd_bench_run(const cli::Args& args) {
  const auto& registry = swsim::bench::bench_registry();
  std::vector<std::string> names(args.positional().begin() + 1,
                                 args.positional().end());
  if (names.empty()) {
    for (const auto& b : registry) names.push_back(b.name);
  }
  for (const auto& name : names) {
    const bool known =
        std::any_of(registry.begin(), registry.end(),
                    [&](const auto& b) { return name == b.name; });
    if (!known) {
      std::cerr << "bench run: unknown bench '" << name
                << "' (see: swsim bench list)\n";
      return 2;
    }
  }

  // Benches run from the output directory (below), so a relative --bin-dir
  // must be resolved against the *current* cwd before the cd.
  const std::string bin_dir =
      std::filesystem::absolute(
          args.value("bin-dir").value_or(default_bench_bin_dir()))
          .string();
  const std::string out_dir = args.value("out-dir").value_or(".");
  std::string flags;
  if (args.has("quick")) flags += " --quick";
  if (const auto v = args.value("repeats")) flags += " --repeats " + *v;
  if (const auto v = args.value("warmup")) flags += " --warmup " + *v;

  int failures = 0;
  for (const auto& name : names) {
    const std::string bin = bin_dir + "/bench_" + name;
    if (!std::filesystem::exists(bin)) {
      std::cerr << "bench run: no binary at " << bin
                << " (build the bench targets, or pass --bin-dir)\n";
      return 2;
    }
    std::cout << "=== bench " << name << " ===\n" << std::flush;
    // Benches write their CSV/PGM artifacts into the cwd, so run them from
    // the output directory and let the harness drop BENCH_<name>.json there.
    const std::string cmd = "cd '" + out_dir + "' && '" + bin + "'" + flags;
    const int rc = std::system(cmd.c_str());
    const int exit_code =
        rc == -1 ? -1 : (WIFEXITED(rc) ? WEXITSTATUS(rc) : -1);
    if (exit_code != 0) {
      std::cerr << "bench run: " << name << " exited with "
                << exit_code << '\n';
      ++failures;
    }
  }
  if (failures > 0) {
    std::cerr << "bench run: " << failures << " of " << names.size()
              << " benches failed\n";
    return 1;
  }
  return 0;
}

swsim::bench::CompareOptions compare_options_from(const cli::Args& args) {
  swsim::bench::CompareOptions opts;
  opts.rel_tolerance = args.number("tolerance", opts.rel_tolerance);
  opts.mad_k = args.number("mad-k", opts.mad_k);
  if (opts.rel_tolerance < 0.0) {
    throw std::invalid_argument("--tolerance must be >= 0");
  }
  if (opts.mad_k < 0.0) {
    throw std::invalid_argument("--mad-k must be >= 0");
  }
  return opts;
}

// Prints the per-case comparison table; returns the number of regressions.
int report_compare(const std::string& label,
                   const swsim::bench::BenchDoc& base,
                   const swsim::bench::BenchDoc& cur,
                   const swsim::bench::CompareResult& result) {
  using swsim::bench::Verdict;
  if (base.env.git_sha != cur.env.git_sha ||
      base.env.compiler != cur.env.compiler ||
      base.env.build_type != cur.env.build_type ||
      base.env.cores != cur.env.cores) {
    std::cout << "note: environments differ (base " << base.env.git_sha
              << ", " << base.env.compiler << ", " << base.env.build_type
              << ", " << base.env.cores << " cores; current "
              << cur.env.git_sha << ", " << cur.env.compiler << ", "
              << cur.env.build_type << ", " << cur.env.cores << " cores)\n";
  }
  if (base.quick != cur.quick) {
    std::cout << "note: comparing a --quick run against a full run\n";
  }
  Table t({"case", "base median", "current", "delta", "threshold",
           "verdict"});
  for (const auto& d : result.deltas) {
    const bool both = d.verdict != Verdict::kNew &&
                      d.verdict != Verdict::kMissing;
    t.add_row({d.name,
               d.verdict == Verdict::kNew ? "-" : Table::num(d.base_median, 6),
               d.verdict == Verdict::kMissing ? "-"
                                              : Table::num(d.cur_median, 6),
               both ? Table::num(d.cur_median - d.base_median, 6) : "-",
               both ? Table::num(d.threshold, 6) : "-",
               swsim::bench::verdict_name(d.verdict)});
  }
  std::cout << label << ":\n" << t.str();
  if (result.regressions > 0) {
    std::cout << result.regressions << " regression"
              << (result.regressions == 1 ? "" : "s") << " detected\n";
  } else {
    std::cout << "no regressions";
    if (result.improvements > 0) {
      std::cout << " (" << result.improvements << " improvement"
                << (result.improvements == 1 ? "" : "s")
                << " — consider refreshing the baseline)";
    }
    std::cout << '\n';
  }
  return result.regressions;
}

int cmd_bench_diff(const cli::Args& args) {
  if (args.positional().size() < 3) {
    std::cerr << "bench diff: need two files: <base.json> <current.json>\n";
    return 2;
  }
  const std::string base_path = args.positional()[1];
  const std::string cur_path = args.positional()[2];
  const auto opts = compare_options_from(args);
  swsim::bench::BenchDoc base, cur;
  try {
    base = swsim::bench::load_bench_file(base_path);
    cur = swsim::bench::load_bench_file(cur_path);
  } catch (const std::exception& e) {
    std::cerr << "bench diff: " << e.what() << '\n';
    return 2;
  }
  const auto result = swsim::bench::compare_benches(base, cur, opts);
  const int regressions =
      report_compare(base_path + " -> " + cur_path, base, cur, result);
  return regressions > 0 ? 1 : 0;
}

int cmd_bench_gate(const cli::Args& args) {
  const auto baseline_dir = args.value("baseline");
  if (!baseline_dir) {
    std::cerr << "bench gate: --baseline <dir> is required\n";
    return 2;
  }
  const std::string current_dir = args.value("current").value_or(".");
  const auto opts = compare_options_from(args);

  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(current_dir, ec)) {
    const std::string fname = entry.path().filename().string();
    if (fname.rfind("BENCH_", 0) == 0 &&
        fname.size() > 11 &&
        fname.compare(fname.size() - 5, 5, ".json") == 0) {
      files.push_back(fname);
    }
  }
  if (ec) {
    std::cerr << "bench gate: cannot read '" << current_dir
              << "': " << ec.message() << '\n';
    return 2;
  }
  if (files.empty()) {
    std::cerr << "bench gate: no BENCH_*.json in '" << current_dir
              << "' (run `swsim bench run` first)\n";
    return 2;
  }
  std::sort(files.begin(), files.end());

  int total_regressions = 0;
  int compared = 0;
  for (const auto& fname : files) {
    const std::string base_path = *baseline_dir + "/" + fname;
    if (!std::filesystem::exists(base_path)) {
      std::cout << "gate: " << fname << ": no baseline (new bench?) — "
                << "skipped\n";
      continue;
    }
    swsim::bench::BenchDoc base, cur;
    try {
      base = swsim::bench::load_bench_file(base_path);
      cur = swsim::bench::load_bench_file(current_dir + "/" + fname);
    } catch (const std::exception& e) {
      std::cerr << "bench gate: " << e.what() << '\n';
      return 2;
    }
    const auto result = swsim::bench::compare_benches(base, cur, opts);
    total_regressions += report_compare(fname, base, cur, result);
    std::cout << '\n';
    ++compared;
  }
  if (compared == 0) {
    std::cerr << "bench gate: nothing to compare ('" << *baseline_dir
              << "' holds no matching baselines)\n";
    return 2;
  }
  if (total_regressions > 0) {
    std::cout << "gate: FAIL — " << total_regressions << " regression"
              << (total_regressions == 1 ? "" : "s") << " across "
              << compared << " bench file" << (compared == 1 ? "" : "s")
              << '\n';
    return 1;
  }
  std::cout << "gate: OK — " << compared << " bench file"
            << (compared == 1 ? "" : "s") << " within tolerance\n";
  return 0;
}

int cmd_bench(const cli::Args& args) {
  if (args.positional().empty()) {
    std::cerr << "bench: missing subcommand (list|run|diff|gate)\n";
    return 2;
  }
  const std::string& sub = args.positional()[0];
  if (sub == "list") return cmd_bench_list();
  if (sub == "run") return cmd_bench_run(args);
  if (sub == "diff") return cmd_bench_diff(args);
  if (sub == "gate") return cmd_bench_gate(args);
  std::cerr << "bench: unknown subcommand '" << sub
            << "' (want list|run|diff|gate)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cli::Args args = cli::Args::parse(argc, argv);
    // Process-wide: applies to every solve path, including --serial runs
    // that never build an engine.
    if (args.has("cell-jobs")) {
      mag::kernels::set_cell_jobs(args.unsigned_integer("cell-jobs", 1));
    }
    const std::string& cmd = args.command();
    if (cmd.empty() || cmd == "help") return usage();
    if (cmd == "truthtable") return cmd_truthtable(args);
    if (cmd == "dispersion") return cmd_dispersion(args);
    if (cmd == "yield") return cmd_yield(args);
    if (cmd == "compare") return cmd_compare();
    if (cmd == "micromag") return cmd_micromag(args);
    if (cmd == "batch") return cmd_batch(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "trace-check") return cmd_trace_check(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "bench") return cmd_bench(args);
    if (cmd == "version") return cmd_version();
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "client") return cmd_client(args);
    if (cmd == "loadgen") return cmd_loadgen(args);
    if (cmd == "probe") return cmd_probe(args);
    std::cerr << "unknown command '" << cmd << "' (try: swsim help)\n";
    return 2;
  } catch (const std::invalid_argument& e) {
    // Malformed flags and values ("--jobs=abc", "--jobs -4") are usage
    // errors, distinct from runtime failures.
    std::cerr << "usage error: " << e.what() << " (try: swsim help)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
