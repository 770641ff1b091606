// Batch front-end of the evaluation engine.
//
// Fans a workload — a truth table over any FanoutGate, or a Monte-Carlo
// yield sweep over a TriangleGateBase — out across the thread pool, with
// per-row results memoized in a content-addressed cache. Gate objects are
// not thread-safe, so the caller supplies a *factory* and every job
// constructs its own instance; determinism then follows from the gates
// being pure functions of their configuration.
//
// Determinism contract (tested): for a fixed workload, the outputs are
// bit-identical for every job count, cold or warm cache. Truth-table rows
// are assembled in pattern order; yield trials draw from an independent
// RNG stream per trial (streamed off the model seed) and partial sums are
// folded in a fixed chunk order that does not depend on the thread count.
//
// Cache contract: a truth-table row is cached under
// combine(config_key, hash(pattern)); config_key must hash every
// physics-relevant parameter (use engine::hash_of). Yield sweeps are
// RNG-driven and always bypass the cache — see docs/PHYSICS.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/gate.h"
#include "core/validator.h"
#include "core/variability.h"
#include "engine/job.h"
#include "engine/result_cache.h"
#include "engine/thread_pool.h"
#include "mag/kernels/runtime.h"
#include "io/table.h"
#include "robust/report.h"
#include "robust/status.h"

namespace swsim::engine {

struct EngineConfig {
  std::size_t jobs = 0;  // worker threads; 0 = hardware concurrency
  // Intra-solve threads for the LLG cell sweeps (mag kernel layer). The
  // sweeps use fixed chunk boundaries, so output is byte-identical for any
  // value. 0 = leave the process-wide setting (SWSIM_CELL_JOBS / CLI)
  // untouched. When > 1, the runner installs its job pool as the shared
  // intra-solve pool for its lifetime, so batch jobs and cell chunks draw
  // from one bounded worker set.
  std::size_t cell_jobs = 0;
  bool use_cache = true;
  std::size_t cache_capacity = 4096;  // in-memory entries
  std::string spill_dir;              // optional disk spill directory

  // Resilience policy, applied per job (see engine/job.h JobOptions).
  double job_timeout_seconds = 0.0;   // 0 disables per-job deadlines
  std::size_t max_retries = 0;        // retry budget for retryable failures
  double retry_backoff_seconds = 0.0; // linear backoff between attempts
};

struct EngineStats {
  std::size_t threads = 0;
  std::size_t runs = 0;           // batch calls served
  std::size_t jobs_executed = 0;  // jobs that actually ran (not cache hits)
  std::size_t jobs_failed = 0;    // terminal failures (incl. timeouts)
  std::size_t jobs_timed_out = 0; // deadline expiries (subset of failed)
  std::size_t jobs_retried = 0;   // extra attempts spent on retries
  std::size_t quarantined_configs = 0;  // config keys currently quarantined
  double wall_seconds = 0.0;      // wall time across batch calls
  double job_seconds = 0.0;       // summed per-job wall time
  ResultCache::Stats cache;

  // job_seconds / wall_seconds: >1 means the pool ran jobs concurrently.
  double parallel_efficiency() const;
  io::Table table() const;
  std::string str() const;
};

// Result of a fault-tolerant batch call: every healthy row/chunk computed
// normally, plus a structured account of everything that failed. ok() iff
// the whole batch succeeded.
struct TruthTableOutcome {
  core::ValidationReport report;  // failed rows carry a non-ok row.status
  robust::FailureReport failures;
  bool ok() const { return failures.empty(); }
};

struct YieldOutcome {
  // report.trials counts only *completed* trials; yield and margins are
  // normalized over those, so partial results stay statistically honest.
  core::YieldReport report;
  robust::FailureReport failures;
  std::size_t requested_trials = 0;
  bool ok() const { return failures.empty(); }
};

class BatchRunner {
 public:
  using GateFactory = std::function<std::unique_ptr<core::FanoutGate>()>;
  using TriangleFactory =
      std::function<std::unique_ptr<core::TriangleGateBase>()>;

  explicit BatchRunner(const EngineConfig& config = {});

  // Parallel, cached equivalent of core::validate_gate. `config_key` is
  // the content hash of the gate configuration (engine::hash_of).
  // `prepare`, when set, runs once as a job of its own, and the row jobs
  // start only after it succeeded; it is skipped when every row was served
  // from cache. It is the hook for shared calibration of micromagnetic
  // gates. Throws (robust::SolveError) on the first failure; use the
  // _checked variant for partial results.
  core::ValidationReport run_truth_table(const GateFactory& factory,
                                         std::uint64_t config_key,
                                         std::function<void()> prepare = {});

  // Fault-tolerant variant: never throws on job failure. Healthy rows are
  // solved (and cached) as usual; failed rows are returned with a non-ok
  // ValidationRow::status and an entry in the failure report; when
  // `prepare` fails, every row it would have served is reported cancelled
  // (0 attempts). Jobs run under the EngineConfig resilience policy
  // (timeout, retries); a config key with two failed jobs is quarantined
  // and refused outright on later calls. `label` prefixes job names in the failure report ("job 3 / row
  // 2") so batch front-ends can attribute failures. `deadline_seconds`, when
  // > 0, is the caller's remaining end-to-end budget: every job gets an
  // absolute not_after deadline, so rows nobody is waiting for any more are
  // refused at pickup with a retryable kDeadlineExceeded instead of solved
  // (deadline expiries never count as quarantine strikes).
  TruthTableOutcome run_truth_table_checked(
      const GateFactory& factory, std::uint64_t config_key,
      std::function<void()> prepare = {}, const std::string& label = "",
      double deadline_seconds = 0.0);

  // Parallel equivalent of core::estimate_yield, deterministic for any job
  // count (per-trial RNG streams; fixed-size chunks). Never cached. Throws
  // on the first chunk failure; use the _checked variant below.
  core::YieldReport run_yield(const TriangleFactory& factory,
                              const core::VariabilityModel& model,
                              std::size_t trials);

  // Fault-tolerant variant: surviving chunks are folded (in chunk order,
  // so the statistics stay deterministic) over completed trials only; lost
  // chunks are reported. Yield sweeps bypass the cache and carry no config
  // key, so quarantine does not apply.
  YieldOutcome run_yield_checked(const TriangleFactory& factory,
                                 const core::VariabilityModel& model,
                                 std::size_t trials,
                                 const std::string& label = "",
                                 double deadline_seconds = 0.0);

  // True when `config_key` has been quarantined (too many failed jobs).
  bool is_quarantined(std::uint64_t config_key) const;

  ResultCache& cache() { return cache_; }
  const EngineConfig& config() const { return config_; }
  std::size_t threads() const { return pool_.thread_count(); }
  EngineStats stats() const;

 private:
  JobOptions job_options(double deadline_seconds = 0.0) const;
  void absorb_scheduler_stats_locked(const class Scheduler& scheduler);

  EngineConfig config_;
  ThreadPool pool_;
  ResultCache cache_;
  // Installs pool_ as the mag kernels' intra-solve pool for this runner's
  // lifetime (no-op when cell_jobs resolves to <= 1). Declared after pool_
  // so it is destroyed first.
  std::unique_ptr<mag::kernels::ScopedSharedPool> shared_pool_;
  mutable std::mutex stats_mutex_;
  std::size_t runs_ = 0;
  std::size_t jobs_executed_ = 0;
  std::size_t jobs_failed_ = 0;
  std::size_t jobs_timed_out_ = 0;
  std::size_t jobs_retried_ = 0;
  double wall_seconds_ = 0.0;
  double job_seconds_ = 0.0;
  // Poison tracking: failed-job strikes per config key, and the status that
  // quarantined the key once strikes reach the threshold.
  std::unordered_map<std::uint64_t, std::size_t> strikes_;
  std::unordered_map<std::uint64_t, robust::Status> quarantine_;
};

}  // namespace swsim::engine
