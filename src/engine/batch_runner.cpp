#include "engine/batch_runner.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "core/logic.h"
#include "engine/hash.h"
#include "engine/scheduler.h"
#include "math/rng.h"
#include "obs/obs.h"
#include "robust/fault_injection.h"
#include "robust/status.h"

namespace swsim::engine {

namespace {

// Failed jobs under one config key after which the key is quarantined:
// later *_checked runs for it are refused without solving.
constexpr std::size_t kQuarantineThreshold = 2;

// Trials per yield job. Fixed (NOT derived from the thread count) so the
// floating-point fold order — and therefore the reported statistics — is
// identical for every --jobs value.
constexpr std::size_t kYieldChunk = 16;

// FanoutOutputs <-> flat payload (the cache value format for truth-table
// rows). 12 doubles: o1 {logic, amplitude, phase, margin}, o2 likewise,
// then the two normalized outputs.
std::vector<double> encode_outputs(const core::FanoutOutputs& o) {
  return {o.o1.logic ? 1.0 : 0.0, o.o1.amplitude, o.o1.phase, o.o1.margin,
          o.o2.logic ? 1.0 : 0.0, o.o2.amplitude, o.o2.phase, o.o2.margin,
          o.normalized_o1,        o.normalized_o2};
}

core::FanoutOutputs decode_outputs(const std::vector<double>& v) {
  if (v.size() != 10) {
    throw std::runtime_error(
        "engine: cached row payload has wrong size (stale spill file from "
        "an incompatible build?)");
  }
  core::FanoutOutputs o;
  o.o1.logic = v[0] != 0.0;
  o.o1.amplitude = v[1];
  o.o1.phase = v[2];
  o.o1.margin = v[3];
  o.o2.logic = v[4] != 0.0;
  o.o2.amplitude = v[5];
  o.o2.phase = v[6];
  o.o2.margin = v[7];
  o.normalized_o1 = v[8];
  o.normalized_o2 = v[9];
  return o;
}

std::uint64_t row_key(std::uint64_t config_key,
                      const std::vector<bool>& pattern) {
  return combine(config_key, Fnv1a().str("row").bits(pattern).digest());
}

class WallClock {
 public:
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_ =
      std::chrono::steady_clock::now();
};

bool job_struck_out(const Job& j) {
  // Strikes count jobs whose closure itself misbehaved; cancelled jobs are
  // collateral damage and do not poison the config. A request-deadline
  // expiry is the caller's budget running out, not the config's fault, so
  // it never strikes either.
  if (j.status.code() == robust::StatusCode::kDeadlineExceeded) return false;
  return j.state == JobState::kFailed || j.state == JobState::kTimedOut;
}

}  // namespace

double EngineStats::parallel_efficiency() const {
  return wall_seconds > 0.0 ? job_seconds / wall_seconds : 0.0;
}

io::Table EngineStats::table() const {
  io::Table t({"metric", "value"});
  t.add_row({"threads", std::to_string(threads)});
  t.add_row({"batch runs", std::to_string(runs)});
  t.add_row({"jobs executed", std::to_string(jobs_executed)});
  t.add_row({"jobs failed", std::to_string(jobs_failed)});
  t.add_row({"jobs timed out", std::to_string(jobs_timed_out)});
  t.add_row({"retries spent", std::to_string(jobs_retried)});
  t.add_row({"quarantined configs", std::to_string(quarantined_configs)});
  t.add_row({"wall (s)", io::Table::num(wall_seconds, 3)});
  t.add_row({"job time (s)", io::Table::num(job_seconds, 3)});
  t.add_row({"parallelism", io::Table::num(parallel_efficiency(), 2)});
  t.add_row({"cache hits", std::to_string(cache.hits)});
  t.add_row({"cache misses", std::to_string(cache.misses)});
  t.add_row({"hit rate", io::Table::num(cache.hit_rate() * 100.0, 1) + "%"});
  t.add_row({"evictions", std::to_string(cache.evictions)});
  t.add_row({"spill writes", std::to_string(cache.spill_writes)});
  t.add_row({"spill loads", std::to_string(cache.spill_loads)});
  t.add_row({"spill corrupt", std::to_string(cache.spill_corrupt)});
  return t;
}

std::string EngineStats::str() const {
  std::ostringstream os;
  os << "engine stats\n" << table().str();
  return os.str();
}

BatchRunner::BatchRunner(const EngineConfig& config)
    : config_(config),
      pool_(config.jobs),
      cache_(config.cache_capacity, config.spill_dir) {
  if (config_.cell_jobs > 0) mag::kernels::set_cell_jobs(config_.cell_jobs);
  // Share the job pool with the kernel layer's intra-solve sweeps
  // (constructed only after cell_jobs is applied; no-op when <= 1).
  shared_pool_ = std::make_unique<mag::kernels::ScopedSharedPool>(&pool_);
}

JobOptions BatchRunner::job_options(double deadline_seconds) const {
  JobOptions o;
  o.timeout_seconds = config_.job_timeout_seconds;
  o.max_retries = config_.max_retries;
  o.backoff_seconds = config_.retry_backoff_seconds;
  if (deadline_seconds > 0.0) {
    o.not_after = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(deadline_seconds));
  }
  return o;
}

bool BatchRunner::is_quarantined(std::uint64_t config_key) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return quarantine_.count(config_key) != 0;
}

EngineStats BatchRunner::stats() const {
  EngineStats s;
  s.threads = pool_.thread_count();
  s.cache = cache_.stats();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  s.runs = runs_;
  s.jobs_executed = jobs_executed_;
  s.jobs_failed = jobs_failed_;
  s.jobs_timed_out = jobs_timed_out_;
  s.jobs_retried = jobs_retried_;
  s.quarantined_configs = quarantine_.size();
  s.wall_seconds = wall_seconds_;
  s.job_seconds = job_seconds_;
  return s;
}

void BatchRunner::absorb_scheduler_stats_locked(const Scheduler& scheduler) {
  jobs_executed_ += scheduler.count(JobState::kDone);
  job_seconds_ += scheduler.total_job_seconds();
  jobs_failed_ += scheduler.count(JobState::kFailed) +
                  scheduler.count(JobState::kTimedOut);
  jobs_timed_out_ += scheduler.count(JobState::kTimedOut);
  for (JobId id = 0; id < scheduler.size(); ++id) {
    const std::size_t attempts = scheduler.job(id).attempts;
    jobs_retried_ += attempts > 1 ? attempts - 1 : 0;
  }
}

core::ValidationReport BatchRunner::run_truth_table(
    const GateFactory& factory, std::uint64_t config_key,
    std::function<void()> prepare) {
  TruthTableOutcome outcome =
      run_truth_table_checked(factory, config_key, std::move(prepare));
  if (!outcome.ok()) {
    // All-or-nothing contract of the unchecked entry point: surface the
    // first failure, classification intact.
    throw robust::SolveError(outcome.failures.failures().front().status);
  }
  return std::move(outcome.report);
}

TruthTableOutcome BatchRunner::run_truth_table_checked(
    const GateFactory& factory, std::uint64_t config_key,
    std::function<void()> prepare, const std::string& label,
    double deadline_seconds) {
  const WallClock clock;
  const std::string prefix = label.empty() ? "" : label + " / ";
  // Probe instance: name, arity and the (pure) reference function. Gate
  // construction must stay cheap relative to evaluation; solves happen in
  // evaluate(), not the constructor.
  const auto probe = factory();
  const auto patterns = core::all_input_patterns(probe->num_inputs());
  std::string span_name;
  if (obs::tracing()) span_name = "truthtable " + probe->name();
  obs::Span span(span_name, "engine");

  TruthTableOutcome outcome;

  // Quarantine gate: a known-poison config is refused before any solve.
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    const auto q = quarantine_.find(config_key);
    if (q != quarantine_.end()) {
      std::vector<core::ValidationRow> rows(patterns.size());
      for (std::size_t i = 0; i < patterns.size(); ++i) {
        rows[i].inputs = patterns[i];
        rows[i].expected = probe->reference(patterns[i]);
        rows[i].status = q->second;
      }
      outcome.report = core::assemble_report(probe->name(), std::move(rows));
      outcome.failures.add({prefix + probe->name(), q->second,
                            /*attempts=*/0, /*quarantined=*/true,
                            obs::wall_now_us(), config_key,
                            /*wall_seconds=*/0.0});
      ++runs_;
      wall_seconds_ += clock.seconds();
      return outcome;
    }
  }

  std::vector<core::ValidationRow> rows(patterns.size());
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (config_.use_cache) {
      if (const auto hit = cache_.lookup(row_key(config_key, patterns[i]))) {
        core::ValidationRow row;
        row.inputs = patterns[i];
        row.expected = probe->reference(patterns[i]);
        row.outputs = decode_outputs(*hit);
        row.pass_o1 = row.outputs.o1.logic == row.expected;
        row.pass_o2 = row.outputs.o2.logic == row.expected;
        rows[i] = std::move(row);
        continue;
      }
    }
    missing.push_back(i);
  }

  if (!missing.empty()) {
    const JobOptions options = job_options(deadline_seconds);
    // Failures in report order (prepare, then rows in row order), and the
    // strikes they count against the config.
    std::vector<robust::JobFailure> failed;
    std::size_t strikes = 0;
    const auto row_label = [&](std::size_t i) {
      return prefix + "row " + std::to_string(i);
    };
    const auto fail_row = [&](std::size_t i, const robust::Status& status) {
      rows[i] = core::ValidationRow{};
      rows[i].inputs = patterns[i];
      rows[i].expected = probe->reference(patterns[i]);
      rows[i].status = status;
    };
    const auto record = [&](const Job& j) {
      failed.push_back({j.label, j.status, j.attempts, false, j.failed_at_us,
                        config_key, j.seconds});
      strikes += job_struck_out(j) ? 1 : 0;
    };

    // `prepare` is a batch of its own: the rows start only once it is done.
    bool prepared = true;
    if (prepare) {
      Scheduler scheduler(pool_);
      scheduler.add(prefix + "prepare", std::move(prepare), options);
      scheduler.run_all();
      const Job& j = scheduler.job(0);
      prepared = j.state == JobState::kDone;
      if (!prepared) record(j);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      absorb_scheduler_stats_locked(scheduler);
    }

    if (prepared) {
      Scheduler scheduler(pool_);
      for (const std::size_t i : missing) {
        scheduler.add(
            row_label(i),
            [this, &factory, &patterns, &rows, i,
             config_key](const robust::CancelToken& token) {
              auto gate = factory();
              gate->set_cancel_token(token);
              rows[i] = core::evaluate_row(*gate, patterns[i]);
              if (config_.use_cache) {
                cache_.insert(row_key(config_key, patterns[i]),
                              encode_outputs(rows[i].outputs));
              }
            },
            options);
      }
      scheduler.run_all();
      // Job k is row missing[k]; mark the failed rows so the report keeps a
      // slot for them.
      for (std::size_t k = 0; k < missing.size(); ++k) {
        const Job& j = scheduler.job(k);
        if (j.state == JobState::kDone) continue;
        fail_row(missing[k], j.status);
        record(j);
      }
      std::lock_guard<std::mutex> lock(stats_mutex_);
      absorb_scheduler_stats_locked(scheduler);
    } else {
      // No row can run without its calibration: each is reported as
      // cancelled, with no attempt made and no strike counted.
      const std::uint64_t now_us = obs::wall_now_us();
      for (const std::size_t i : missing) {
        const std::string job = row_label(i);
        const robust::Status status = robust::Status::error(
            robust::StatusCode::kCancelled, "cancelled before running",
            "job '" + job + "'");
        fail_row(i, status);
        failed.push_back({job, status, /*attempts=*/0, false, now_us,
                          config_key, /*wall_seconds=*/0.0});
      }
    }

    if (strikes > 0) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      std::size_t& tally = strikes_[config_key];
      tally += strikes;
      if (tally >= kQuarantineThreshold &&
          quarantine_.count(config_key) == 0) {
        quarantine_.emplace(
            config_key,
            robust::Status::error(
                robust::StatusCode::kQuarantined,
                "config quarantined after " + std::to_string(tally) +
                    " failed jobs",
                probe->name()));
        for (robust::JobFailure& f : failed) f.quarantined = true;
        obs::MetricsRegistry::global().counter("engine.quarantines").add();
        auto& elog = obs::EventLog::global();
        if (elog.enabled(obs::LogLevel::kWarn)) {
          elog.event(obs::LogLevel::kWarn, "quarantine")
              .str("gate", probe->name())
              .hex("config_key", config_key)
              .uint("strikes", tally)
              .emit();
        }
      }
    }
    for (robust::JobFailure& f : failed) outcome.failures.add(std::move(f));
  }

  outcome.report = core::assemble_report(probe->name(), std::move(rows));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++runs_;
    wall_seconds_ += clock.seconds();
  }
  return outcome;
}

core::YieldReport BatchRunner::run_yield(const TriangleFactory& factory,
                                         const core::VariabilityModel& model,
                                         std::size_t trials) {
  YieldOutcome outcome = run_yield_checked(factory, model, trials);
  if (!outcome.ok()) {
    throw robust::SolveError(outcome.failures.failures().front().status);
  }
  return outcome.report;
}

YieldOutcome BatchRunner::run_yield_checked(
    const TriangleFactory& factory, const core::VariabilityModel& model,
    std::size_t trials, const std::string& label, double deadline_seconds) {
  if (trials == 0) {
    throw std::invalid_argument("BatchRunner::run_yield: trials must be >= 1");
  }
  if (model.sigma_phase < 0.0 || model.sigma_amplitude < 0.0) {
    throw std::invalid_argument("BatchRunner::run_yield: sigmas must be >= 0");
  }
  const WallClock clock;
  const std::string prefix = label.empty() ? "" : label + " / ";
  std::string span_name;
  if (obs::tracing()) {
    span_name = "yield " + std::to_string(trials) + " trials";
  }
  obs::Span span(span_name, "engine");

  struct ChunkPartial {
    std::size_t passing = 0;
    std::size_t row_failures = 0;
    double margin_acc = 0.0;
  };
  const std::size_t chunks = (trials + kYieldChunk - 1) / kYieldChunk;
  std::vector<ChunkPartial> partials(chunks);

  Scheduler scheduler(pool_);
  const JobOptions options = job_options(deadline_seconds);
  for (std::size_t c = 0; c < chunks; ++c) {
    scheduler.add(
        prefix + "trials " + std::to_string(c * kYieldChunk),
        [&, c](const robust::CancelToken& token) {
          auto gate = factory();
          gate->set_cancel_token(token);
          const auto patterns = core::all_input_patterns(gate->num_inputs());
          const std::size_t begin = c * kYieldChunk;
          const std::size_t end = std::min(trials, begin + kYieldChunk);
          // Accumulate locally and publish only after the full chunk
          // succeeds: a retried attempt that failed mid-chunk must not
          // leave half its trials behind to be counted twice.
          ChunkPartial part;
          for (std::size_t t = begin; t < end; ++t) {
            if (token.cancelled()) {
              throw robust::SolveError(robust::Status::error(
                  robust::StatusCode::kCancelled,
                  "cancelled at trial " + std::to_string(t)));
            }
            robust::FaultPlan::global().on_trial_enter(t);
            // Independent, trial-indexed RNG stream: trial t draws the
            // same disturbances no matter which thread or chunk runs it.
            swsim::math::Pcg32 rng(model.seed, /*stream=*/t);
            const auto outcome =
                core::run_variability_trial(*gate, model, rng, patterns);
            if (outcome.all_rows) ++part.passing;
            part.row_failures += outcome.row_failures;
            part.margin_acc += outcome.worst_margin;
          }
          partials[c] = part;
        },
        options);
  }
  scheduler.run_all();

  // Fold surviving chunks in chunk order: the FP sum is then independent
  // of the job count, and — because each trial's RNG stream is indexed by
  // the trial, not the chunk — a lost chunk removes exactly its own trials
  // from the statistics without disturbing any other trial's draw.
  YieldOutcome out;
  out.requested_trials = trials;
  std::size_t completed = 0;
  double margin_acc = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const Job& j = scheduler.job(c);  // job c is chunk c
    const std::size_t begin = c * kYieldChunk;
    const std::size_t end = std::min(trials, begin + kYieldChunk);
    if (j.state == JobState::kDone) {
      out.report.passing += partials[c].passing;
      out.report.worst_row_failures += partials[c].row_failures;
      margin_acc += partials[c].margin_acc;
      completed += end - begin;
    } else {
      out.failures.add({j.label, j.status, j.attempts, false, j.failed_at_us,
                        /*job_key=*/0, j.seconds});
    }
  }
  out.report.trials = completed;
  if (completed > 0) {
    out.report.yield = static_cast<double>(out.report.passing) /
                       static_cast<double>(completed);
    out.report.mean_worst_margin =
        margin_acc / static_cast<double>(completed);
  }

  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++runs_;
  absorb_scheduler_stats_locked(scheduler);
  wall_seconds_ += clock.seconds();
  return out;
}

}  // namespace swsim::engine
