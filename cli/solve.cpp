// Solve commands: the paper's truth tables (Tables I/II), the dispersion
// and Table III figures, Monte-Carlo yield, the LLG validation run, batch
// job lists and probe recordings — plus the run context the engine-backed
// ones share.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>

#include "cli/commands.h"
#include "core/micromag_gate.h"
#include "core/validator.h"
#include "io/csv.h"
#include "io/table.h"
#include "mag/kernels/runtime.h"
#include "math/constants.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "perf/comparison.h"
#include "robust/fault_injection.h"
#include "robust/report.h"
#include "robust/shutdown.h"
#include "wavenet/dispersion.h"

namespace swsim::cli {

using namespace swsim::math;
using io::Table;

namespace {

// The setup and teardown the solve commands (truthtable, yield, micromag,
// batch) share: --inject, the observability sinks, the engine, --stats,
// and the exit code that folds a failed sink write into the command's own.
class SolveRun {
 public:
  // Validates every flag, then arms --inject and the sinks, then builds
  // the engine. `cacheable` false keeps results out of the cache.
  explicit SolveRun(const Args& args, bool cacheable = true)
      : args_(args),
        trace_out_(args.value("trace-out").value_or("")),
        metrics_out_(args.value("metrics-out").value_or("")),
        log_json_(args.value("log-json").value_or("")),
        profile_out_(args.value("profile-out").value_or("")) {
    if (args.has("progress") && args.has("no-progress")) {
      throw std::invalid_argument("--progress conflicts with --no-progress");
    }
    // Default: live progress only when a human is watching stderr, so
    // piped and logged runs stay byte-clean without needing the flag.
    progress_ = args.has("progress") ||
                (!args.has("no-progress") &&
                 obs::ProgressReporter::stderr_is_tty());
    if (args.has("stats") && !metrics_out_.empty()) {
      throw std::invalid_argument(
          "--metrics-out and --stats double-report the engine counters "
          "(pick one)");
    }
    obs::LogLevel log_level = obs::LogLevel::kInfo;
    if (const auto level = args.value("log-level")) {
      if (log_json_.empty()) {
        throw std::invalid_argument("--log-level requires --log-json <file>");
      }
      log_level = obs::parse_log_level(*level);
    }
    engine::EngineConfig config = engine_config_from(args);
    config.use_cache = config.use_cache && cacheable;
    if (const auto inject = args.value("inject")) arm_faults(*inject);

    // Arm the sinks before the engine exists, so they observe all of it.
    // Metrics are reset on arming so a dump covers exactly this command.
    t0_us_ = obs::now_us();
    if (!trace_out_.empty()) obs::TraceSession::global().start();
    if (!metrics_out_.empty() || !profile_out_.empty()) {
      // --profile-out aggregates the same counters a --metrics-out dump
      // exports, so either flag arms (and scopes) the registry.
      obs::MetricsRegistry::global().reset();
      obs::MetricsRegistry::arm();
    }
    if (!log_json_.empty()) obs::EventLog::global().open(log_json_, log_level);
    if (progress_) obs::ProgressReporter::global().enable();
    runner_.emplace(config);
  }

  engine::BatchRunner& engine() { return *runner_; }

  // Prints --stats and flushes the sinks. Returns 1 when a sink file could
  // not be written (the solve itself already succeeded), else `rc`.
  int finish(int rc) {
    if (args_.has("stats")) std::cout << '\n' << runner_->stats().str();
    if (progress_) obs::ProgressReporter::global().finish();
    bool failed = false;
    std::string error;
    const auto wrote = [&](bool ok, const char* flag, const std::string& path,
                           const char* what) {
      if (ok) std::cout << what << " -> " << path << '\n';
      if (!ok) std::cerr << "error: --" << flag << ": " << error << '\n';
      failed = failed || !ok;
    };
    if (!profile_out_.empty()) {
      const double wall_s = (obs::now_us() - t0_us_) * 1e-6;
      wrote(obs::write_json_file(profile_out_,
                                 obs::RunProfile::collect(wall_s).to_json(),
                                 &error),
            "profile-out", profile_out_, "profile");
      if (metrics_out_.empty()) obs::MetricsRegistry::disarm();
    }
    if (!trace_out_.empty()) {
      failed = !write_trace(trace_out_, "", std::cout) || failed;
    }
    if (!metrics_out_.empty()) {
      obs::MetricsRegistry::disarm();
      wrote(obs::MetricsRegistry::global().write_json(metrics_out_, &error),
            "metrics-out", metrics_out_, "metrics");
    }
    if (!log_json_.empty()) obs::EventLog::global().close();
    return failed ? 1 : rc;
  }

 private:
  const Args& args_;
  std::string trace_out_, metrics_out_, log_json_, profile_out_;
  bool progress_ = false;
  double t0_us_ = 0.0;  // solve start (monotonic), the profile's wall basis
  std::optional<engine::BatchRunner> runner_;
};

}  // namespace

engine::EngineConfig engine_config_from(const Args& args) {
  engine::EngineConfig cfg;
  cfg.jobs = args.unsigned_integer("jobs", 0);
  // --cell-jobs 0 asks for the hardware threads; an engine's 0 means "keep
  // the process-wide setting" (SWSIM_CELL_JOBS), which is what no flag does.
  if (args.has("cell-jobs")) {
    const std::size_t n = args.unsigned_integer("cell-jobs", 0);
    cfg.cell_jobs = n > 0 ? n : engine::ThreadPool::default_threads();
  }
  cfg.use_cache = !args.has("no-cache");
  cfg.spill_dir = args.value("cache-dir").value_or("");
  cfg.job_timeout_seconds = args.number("timeout", 0.0);
  cfg.max_retries = args.unsigned_integer("max-retries", 0);
  cfg.retry_backoff_seconds = args.number("retry-backoff", 0.0);
  if (cfg.job_timeout_seconds < 0.0 || cfg.retry_backoff_seconds < 0.0) {
    throw std::invalid_argument("--timeout/--retry-backoff must be >= 0 s");
  }
  return cfg;
}

// Workload parameters from CLI flags. The spec construction itself
// (factories, cache keys) lives in serve/workload.h, shared with the serve
// daemon so both front-ends are byte-identical by construction.
std::string gate_arg(const Args& args, std::size_t at) {
  return args.positional().size() > at ? args.positional()[at]
                                       : args.value("gate").value_or("maj");
}

serve::GateParams gate_params_from(const std::string& kind,
                                   const Args& args) {
  serve::GateParams p;
  p.kind = kind;
  p.lambda_nm = args.number("lambda", 55.0);
  if (args.value("width")) p.width_nm = args.number("width", 0.0);
  return p;
}

serve::YieldParams yield_params_from(const std::string& kind,
                                     const Args& args) {
  serve::YieldParams p;
  p.kind = kind;
  p.lambda_nm = args.number("lambda", 55.0);
  if (args.value("width")) p.width_nm = args.number("width", 0.0);
  p.sigma_length_nm = args.number("sigma-length", 2.0);
  p.sigma_amp = args.number("sigma-amp", 0.05);
  p.trials = args.unsigned_integer("trials", 500);
  if (p.trials == 0) throw std::invalid_argument("--trials must be >= 1");
  return p;
}

serve::MicromagParams micromag_params_from(const std::string& kind,
                                           const Args& args) {
  serve::MicromagParams p;
  p.kind = kind;
  p.lambda_nm = args.number("lambda", 50.0);
  p.width_nm = args.number("width", 20.0);
  p.cell_nm = args.number("cell", 4.0);
  p.early_stop = args.has("early-stop");
  return p;
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

bool write_trace(const std::string& path, const std::string& prefix,
                 std::ostream& report, const std::string& note) {
  auto& session = obs::TraceSession::global();
  session.stop();
  const std::size_t events = session.event_count();
  std::string error;
  if (!session.write_chrome_json(path, &error)) {
    std::cerr << (prefix.empty() ? "error: " : prefix)
              << "--trace-out: " << error << '\n';
    return false;
  }
  report << prefix << "trace: " << events << " events -> " << path << note
         << '\n';
  return true;
}

int cmd_truthtable(const Args& args) {
  const std::string kind = args.positional()[0];
  const auto spec = serve::make_truth_table_spec(gate_params_from(kind, args));
  if (!spec) {
    std::cerr << "truthtable: unknown gate '" << kind << "'\n";
    return 2;
  }
  SolveRun run(args);
  const auto report = run.engine().run_truth_table(spec->factory, spec->key);
  std::cout << core::format_report(report);
  return run.finish(report.all_pass ? 0 : 1);
}

int cmd_dispersion(const Args& args) {
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

int cmd_yield(const Args& args) {
  const auto spec =
      serve::make_yield_spec(yield_params_from(gate_arg(args, 0), args));
  if (!spec) {
    std::cerr << "yield: unknown gate\n";
    return 2;
  }
  SolveRun run(args);
  std::cout << serve::render_yield(
      spec->kind,
      run.engine().run_yield(spec->factory, spec->model, spec->trials));
  return run.finish(0);
}

int cmd_compare(const Args&) {
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

int cmd_micromag(const Args& args) {
  // Built through the same spec the serve daemon uses, so the CLI and a
  // served "micromag" request share one configuration (and cache key).
  const serve::MicromagParams params =
      micromag_params_from(args.has("xor") ? "xor" : "maj", args);
  const auto spec = serve::make_micromag_spec(params);
  const core::MicromagGateConfig& cfg = spec->config;
  // Seeded physics (thermal noise, edge roughness) must not be served from
  // the cache: the seed is part of the sample, and sweeps want fresh draws.
  SolveRun run(args, cfg.temperature <= 0.0 && !cfg.roughness.has_value());
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
  const auto report =
      run.engine().run_truth_table(spec->factory, spec->key, spec->prepare);
  std::cout << core::format_report(report);
  if (params.early_stop) {
    const auto phys = obs::PhysicsRegistry::global().snapshot();
    std::cout << "early stop saved " << phys.early_stop_saved_steps
              << " integration steps\n";
  }
  return run.finish(report.all_pass ? 0 : 1);
}

// Runs a job-list file through one shared engine: every line is a
// `truthtable ...` or `yield ...` command, checked against that entry's own
// flags; '#' starts a comment. Identical configurations across lines are
// solved once. Results land in a CSV (--out) or a console table.
//
// Lines run through the engine's checked entry points: a line whose jobs
// fail (divergence, injected fault, timeout) gets a non-ok status and a row
// in the failure report (printed, or --report <csv>), while healthy lines
// return as usual. Failed lines leave the exit code alone unless
// --fail-fast stops at the first one.
int cmd_batch(const Args& args) {
  std::ifstream in(args.positional()[0]);
  if (!in) {
    std::cerr << "batch: cannot open '" << args.positional()[0] << "'\n";
    return 2;
  }
  SolveRun run(args);

  // ^C / SIGTERM: trip the process-wide cancel (in-flight jobs stop at
  // their next poll point), stop reading lines, then fall through to the
  // normal epilogue so partial results, the failure report, and every
  // armed observability sink are still flushed. Exit code 130 marks the
  // interrupted-but-flushed outcome.
  auto& shutdown_signal = robust::ShutdownSignal::global();
  shutdown_signal.install(robust::ShutdownConfig{});

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
    std::istringstream words(line.substr(0, line.find('#')));
    const std::vector<std::string> tokens{
        std::istream_iterator<std::string>(words), {}};
    if (tokens.empty()) continue;

    const std::string& command = tokens[0];
    const bool is_yield = command == "yield";
    Args job;
    std::optional<serve::TruthTableSpec> table_spec;
    std::optional<serve::YieldSpec> yield_spec;
    try {
      if (!is_yield && command != "truthtable") {
        throw std::invalid_argument("unknown command '" + command +
                                    "' (want truthtable|yield)");
      }
      job = Args::parse(*std::ranges::find(commands(), command, &Command::name),
                        std::span(tokens).subspan(1), /*shared=*/false);
      if (is_yield) {
        yield_spec =
            serve::make_yield_spec(yield_params_from(gate_arg(job, 0), job));
        if (!yield_spec) throw std::invalid_argument("unknown gate");
      } else {
        const std::string& kind = job.positional()[0];
        table_spec =
            serve::make_truth_table_spec(gate_params_from(kind, job));
        if (!table_spec) {
          throw std::invalid_argument("unknown gate '" + kind + "'");
        }
      }
    } catch (const std::invalid_argument& e) {
      std::cerr << "batch: line " << line_no << ": " << e.what() << '\n';
      return 2;
    }

    const std::string label = "job " + std::to_string(line_no);
    const std::string lambda = Table::num(job.number("lambda", 55.0), 1);
    bool line_ok = true;
    std::string status = "ok";
    const auto note_failures = [&](const robust::FailureReport& f) {
      line_ok = f.empty();
      if (!line_ok) {
        failures.merge(f);
        status = to_string(f.failures().front().status.code());
      }
    };
    if (table_spec) {
      const auto outcome = run.engine().run_truth_table_checked(
          table_spec->factory, table_spec->key, {}, label);
      note_failures(outcome.failures);
      // Logic failures (a healthy solve whose table does not pass) drive
      // the exit code; solve failures are reported, not fatal, unless
      // --fail-fast.
      all_ok = all_ok && (!line_ok || outcome.report.all_pass);
      results.push_back({std::to_string(line_no), "truthtable",
                         job.positional()[0], lambda,
                         line_ok ? (outcome.report.all_pass ? "1" : "0") : "",
                         "",
                         Table::num(outcome.report.max_output_asymmetry, 6),
                         Table::num(outcome.report.min_margin, 6), "",
                         status});
    } else {
      const auto outcome = run.engine().run_yield_checked(
          yield_spec->factory, yield_spec->model, yield_spec->trials, label);
      note_failures(outcome.failures);
      results.push_back({std::to_string(line_no), "yield", yield_spec->kind,
                         lambda, "", Table::num(outcome.report.yield, 6), "",
                         "", Table::num(outcome.report.mean_worst_margin, 6),
                         status});
    }

    if (!line_ok && args.has("fail-fast")) {
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
  const int rc = run.finish(aborted || !all_ok ? 1 : 0);
  if (interrupted) {
    std::cerr << "batch: interrupted by signal after " << results.size()
              << " line" << (results.size() == 1 ? "" : "s")
              << "; partial results and reports were written\n";
    return 130;
  }
  return rc;
}

// One LLG solve of the reduced-scale gate, detector series to CSV
// (columns probe,t,mx,my,mz — the input of `probe spectrum`).
int cmd_probe_record(const Args& args) {
  const auto out = args.value("out");
  if (!out) {
    std::cerr << "probe record: missing --out <csv>\n";
    return 2;
  }
  // No engine here: --cell-jobs goes straight to the kernel layer.
  if (const std::size_t n = engine_config_from(args).cell_jobs) {
    mag::kernels::set_cell_jobs(n);
  }
  const auto spec = serve::make_micromag_spec(
      micromag_params_from(args.has("xor") ? "xor" : "maj", args));
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

}  // namespace swsim::cli
