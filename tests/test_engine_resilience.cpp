// Fault-tolerant engine behavior, one test per failure class: a job that
// throws, a divergence that retry absorbs, a deadline expiry, a corrupted
// cache spill, a quarantined configuration — plus the determinism of
// partial batches across job counts.
#include "engine/batch_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/triangle_gate.h"
#include "core/validator.h"
#include "core/variability.h"
#include "engine/hash.h"
#include "engine/result_cache.h"
#include "engine/scheduler.h"
#include "engine/thread_pool.h"
#include "robust/fault_injection.h"

namespace swsim::engine {
namespace {

using robust::ScopedFaultPlan;
using robust::StatusCode;

BatchRunner::GateFactory maj_factory() {
  core::TriangleGateConfig cfg;
  return [cfg] { return std::make_unique<core::TriangleMajGate>(cfg); };
}

std::uint64_t maj_key() { return hash_of(core::TriangleGateConfig{}); }

// --- failure class 1: a job throws mid-batch -----------------------------

TEST(EngineResilience, ThrownJobYieldsPartialBatchWithReport) {
  ScopedFaultPlan plan;
  plan->inject_throw_in_job("row 2");

  const auto factory = maj_factory();
  auto serial_gate = factory();
  const auto serial = core::validate_gate(*serial_gate);

  EngineConfig cfg;
  cfg.jobs = 4;
  BatchRunner runner(cfg);
  const TruthTableOutcome outcome =
      runner.run_truth_table_checked(factory, maj_key());

  EXPECT_FALSE(outcome.ok());
  EXPECT_FALSE(outcome.report.all_pass);
  ASSERT_EQ(outcome.report.rows.size(), serial.rows.size());

  // Every healthy row matches the serial reference exactly.
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    const auto& row = outcome.report.rows[i];
    if (i == 2) {
      EXPECT_EQ(row.status.code(), StatusCode::kInternal);
      EXPECT_FALSE(row.pass_o1);
      continue;
    }
    EXPECT_TRUE(row.status.is_ok()) << "row " << i;
    EXPECT_EQ(row.pass_o1, serial.rows[i].pass_o1);
    EXPECT_EQ(row.pass_o2, serial.rows[i].pass_o2);
    EXPECT_EQ(row.outputs.o1.amplitude, serial.rows[i].outputs.o1.amplitude);
    EXPECT_EQ(row.outputs.o1.phase, serial.rows[i].outputs.o1.phase);
  }

  // The report names the job and its cause.
  ASSERT_EQ(outcome.failures.size(), 1u);
  const auto& f = outcome.failures.failures()[0];
  EXPECT_NE(f.job.find("row 2"), std::string::npos);
  EXPECT_EQ(f.status.code(), StatusCode::kInternal);
  EXPECT_NE(f.status.message().find("injected fault"), std::string::npos);
  EXPECT_EQ(runner.stats().jobs_failed, 1u);
}

TEST(EngineResilience, FailedPrepareCancelsEveryRowAndReportsIt) {
  // The rows of a truth table run only after its `prepare` succeeded. When
  // it throws, no row is attempted: each is reported cancelled, in row
  // order after prepare's own failure.
  ScopedFaultPlan plan;
  plan->inject_throw_in_job("prepare");
  std::atomic<int> built{0};
  const BatchRunner::GateFactory factory = [&built, inner = maj_factory()] {
    ++built;
    return inner();
  };

  EngineConfig cfg;
  cfg.jobs = 2;
  BatchRunner runner(cfg);
  const TruthTableOutcome outcome = runner.run_truth_table_checked(
      factory, maj_key(), [] {}, "tenant req 1");

  const auto& failures = outcome.failures.failures();
  ASSERT_EQ(failures.size(), 9u);
  EXPECT_EQ(failures[0].job, "tenant req 1 / prepare");
  EXPECT_EQ(failures[0].status.code(), StatusCode::kInternal);
  EXPECT_EQ(failures[0].attempts, 1u);
  ASSERT_EQ(outcome.report.rows.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    const std::string job = "tenant req 1 / row " + std::to_string(i);
    const auto& f = failures[i + 1];
    EXPECT_EQ(f.job, job);
    EXPECT_EQ(f.status.code(), StatusCode::kCancelled) << job;
    EXPECT_EQ(f.status.message(), "cancelled before running") << job;
    EXPECT_EQ(f.status.context(), "job '" + job + "'");
    EXPECT_EQ(f.attempts, 0u) << job;
    EXPECT_FALSE(f.quarantined) << job;
    const robust::Status& row = outcome.report.rows[i].status;
    EXPECT_EQ(row.code(), f.status.code()) << job;
    EXPECT_EQ(row.message(), f.status.message()) << job;
    EXPECT_EQ(row.context(), f.status.context()) << job;
  }
  EXPECT_EQ(built.load(), 1);  // the probe instance only
  EXPECT_EQ(runner.stats().jobs_failed, 1u);
  EXPECT_EQ(runner.stats().jobs_executed, 0u);
}

TEST(EngineResilience, UncheckedEntryPointStillThrows) {
  ScopedFaultPlan plan;
  plan->inject_throw_in_job("row 0");
  BatchRunner runner(EngineConfig{});
  EXPECT_THROW(runner.run_truth_table(maj_factory(), maj_key()),
               robust::SolveError);
}

// --- failure class 2: transient divergence absorbed by retry -------------

TEST(EngineResilience, RetryRecoversTransientDivergence) {
  ScopedFaultPlan plan;
  plan->inject_divergence_in_job("row 1");  // budget 1: retry runs clean

  EngineConfig cfg;
  cfg.jobs = 2;
  cfg.max_retries = 1;
  BatchRunner runner(cfg);
  const TruthTableOutcome outcome =
      runner.run_truth_table_checked(maj_factory(), maj_key());

  EXPECT_TRUE(outcome.ok()) << outcome.failures.str();
  EXPECT_TRUE(outcome.report.all_pass);
  EXPECT_EQ(runner.stats().jobs_retried, 1u);
  EXPECT_EQ(runner.stats().jobs_failed, 0u);
}

TEST(EngineResilience, YieldRetryDoesNotDoubleCountPartialChunks) {
  core::TriangleGateConfig gate_cfg;
  const BatchRunner::TriangleFactory factory = [gate_cfg] {
    return std::make_unique<core::TriangleMajGate>(gate_cfg);
  };
  core::VariabilityModel model;
  model.sigma_phase = 0.35;
  model.sigma_amplitude = 0.08;
  model.seed = 11;

  EngineConfig cfg;
  cfg.jobs = 2;
  cfg.max_retries = 1;
  cfg.retry_backoff_seconds = 0.01;
  BatchRunner clean_runner(cfg);
  const YieldOutcome clean = clean_runner.run_yield_checked(factory, model, 32);
  ASSERT_TRUE(clean.ok());

  // Divergence at trial 5 — *mid-chunk*, after trials 0..4 of chunk 0
  // already accumulated. The retried attempt re-runs the chunk from trial
  // 0; its statistics must replace the aborted attempt's partial sums,
  // not add to them (the double-count would inflate passing and margins).
  ScopedFaultPlan plan;
  plan->inject_divergence_at_trial(5);
  BatchRunner runner(cfg);
  const YieldOutcome retried = runner.run_yield_checked(factory, model, 32);

  EXPECT_TRUE(retried.ok()) << retried.failures.str();
  EXPECT_EQ(runner.stats().jobs_retried, 1u);
  EXPECT_EQ(retried.report.trials, 32u);
  EXPECT_EQ(retried.report.passing, clean.report.passing);
  EXPECT_EQ(retried.report.worst_row_failures, clean.report.worst_row_failures);
  EXPECT_EQ(retried.report.yield, clean.report.yield);
  EXPECT_EQ(retried.report.mean_worst_margin, clean.report.mean_worst_margin);
  EXPECT_LE(retried.report.yield, 1.0);
}

TEST(EngineResilience, RetryBudgetExhaustionIsTerminal) {
  ScopedFaultPlan plan;
  plan->inject_divergence_in_job("row 1", /*times=*/3);

  EngineConfig cfg;
  cfg.max_retries = 1;  // 2 attempts < 3 armed faults
  BatchRunner runner(cfg);
  const TruthTableOutcome outcome =
      runner.run_truth_table_checked(maj_factory(), maj_key());

  EXPECT_FALSE(outcome.ok());
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures.failures()[0].status.code(),
            StatusCode::kNumericalDivergence);
  EXPECT_EQ(outcome.failures.failures()[0].attempts, 2u);
}

TEST(EngineResilience, BackoffWaitsOffThePoolSoReadyJobsProceed) {
  // One worker, one flaky job with a long backoff, and quick jobs queued
  // behind it. The backoff must be served by the run_all() timer loop, not
  // by the worker sleeping in the pool queue — otherwise the queued jobs
  // stall behind the sleep.
  ThreadPool pool(1);
  Scheduler sched(pool);

  JobOptions retry;
  retry.max_retries = 1;
  retry.backoff_seconds = 0.4;
  std::atomic<int> flaky_attempts{0};
  std::chrono::steady_clock::time_point retry_started{};
  std::chrono::steady_clock::time_point late_done{};
  const JobId flaky = sched.add(
      "flaky",
      [&](const robust::CancelToken&) {
        if (flaky_attempts.fetch_add(1) == 0) {
          throw robust::SolveError(robust::Status::error(
              StatusCode::kNumericalDivergence, "transient"));
        }
        retry_started = std::chrono::steady_clock::now();
      },
      retry);
  sched.add("quick", [] {});
  // Queued behind the flaky job's first attempt: a sleeping backoff would
  // park the only worker before "late" could start.
  const JobId late = sched.add(
      "late", [&] { late_done = std::chrono::steady_clock::now(); });

  sched.run_all();
  EXPECT_EQ(sched.job(flaky).state, JobState::kDone);
  EXPECT_EQ(sched.job(flaky).attempts, 2u);
  EXPECT_EQ(sched.job(late).state, JobState::kDone);
  // "late" ran during the 0.4 s backoff, well before the retry attempt.
  EXPECT_LT(late_done, retry_started);
}

// --- failure class 3: deadline expiry ------------------------------------

TEST(EngineResilience, TimedOutJobIsTerminalAndDependentsCancelled) {
  ThreadPool pool(2);
  Scheduler sched(pool);

  JobOptions timed;
  timed.timeout_seconds = 0.1;
  std::atomic<bool> observed_cancel{false};
  const JobId slow = sched.add(
      "stalled",
      [&observed_cancel](const robust::CancelToken& token) {
        // Cooperative stall: holds the worker until the deadline watchdog
        // trips the token, then returns (result would be discarded).
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!token.cancelled() &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        observed_cancel = token.cancelled();
      },
      timed);

  sched.run_all();
  EXPECT_EQ(sched.job(slow).state, JobState::kTimedOut);
  EXPECT_EQ(sched.job(slow).status.code(), StatusCode::kTimeout);
  EXPECT_NE(sched.job(slow).status.message().find("deadline"),
            std::string::npos);
  EXPECT_TRUE(observed_cancel.load());  // the token really was tripped

  // A truth table's rows depend on its `prepare`: when that times out,
  // every row is cancelled without running.
  ScopedFaultPlan plan;
  plan->inject_stall_in_job("prepare", /*seconds=*/0.3);
  EngineConfig cfg;
  cfg.jobs = 2;
  cfg.job_timeout_seconds = 0.1;
  BatchRunner runner(cfg);
  const TruthTableOutcome outcome =
      runner.run_truth_table_checked(maj_factory(), maj_key(), [] {});
  ASSERT_EQ(outcome.failures.size(), 9u);
  EXPECT_EQ(outcome.failures.failures()[0].status.code(),
            StatusCode::kTimeout);
  for (const auto& row : outcome.report.rows) {
    EXPECT_EQ(row.status.code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(runner.stats().jobs_executed, 0u);
  EXPECT_EQ(runner.stats().jobs_timed_out, 1u);
}

TEST(EngineResilience, ExpiredDeadlineShedsJobBeforeItRuns) {
  // not_after already in the past at pickup: the job must be shed without
  // its closure ever running — the serve layer's "don't burn engine work
  // for a client that stopped waiting" contract.
  ThreadPool pool(2);
  Scheduler sched(pool);
  JobOptions expired;
  expired.not_after =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  std::atomic<bool> ran{false};
  const JobId doomed = sched.add("doomed", [&ran] { ran = true; }, expired);

  sched.run_all();
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(sched.job(doomed).state, JobState::kTimedOut);
  EXPECT_EQ(sched.job(doomed).status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(sched.job(doomed).status.message().find("before the job"),
            std::string::npos);
}

TEST(EngineResilience, MidRunDeadlineTripsTheRunningJob) {
  ThreadPool pool(2);
  Scheduler sched(pool);
  JobOptions opts;
  opts.not_after =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  std::atomic<bool> observed_cancel{false};
  const JobId slow = sched.add(
      "slow",
      [&observed_cancel](const robust::CancelToken& token) {
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!token.cancelled() &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        observed_cancel = token.cancelled();
      },
      opts);

  sched.run_all();
  EXPECT_EQ(sched.job(slow).state, JobState::kTimedOut);
  EXPECT_EQ(sched.job(slow).status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(observed_cancel.load());
}

TEST(EngineResilience, DeadlineShedsDoNotQuarantineTheConfig) {
  // Three whole batches shed on an expired deadline — far past the strike
  // threshold if sheds counted. They must not: the config is healthy, the
  // *client's budget* was the problem, and the next funded run solves.
  EngineConfig cfg;
  cfg.jobs = 2;
  BatchRunner runner(cfg);
  for (int i = 0; i < 3; ++i) {
    const TruthTableOutcome shed = runner.run_truth_table_checked(
        maj_factory(), maj_key(), {}, "budgetless", /*deadline_seconds=*/1e-9);
    EXPECT_FALSE(shed.ok());
    ASSERT_FALSE(shed.failures.failures().empty());
    EXPECT_EQ(shed.failures.failures().front().status.code(),
              StatusCode::kDeadlineExceeded);
  }
  const TruthTableOutcome healthy =
      runner.run_truth_table_checked(maj_factory(), maj_key());
  EXPECT_TRUE(healthy.ok()) << healthy.failures.str();
  EXPECT_TRUE(healthy.report.all_pass);
}

TEST(EngineResilience, BatchTimeoutLandsInFailureReport) {
  ScopedFaultPlan plan;
  plan->inject_stall_in_job("row 3", /*seconds=*/2.0);

  EngineConfig cfg;
  cfg.jobs = 4;
  cfg.job_timeout_seconds = 0.15;
  BatchRunner runner(cfg);
  const TruthTableOutcome outcome =
      runner.run_truth_table_checked(maj_factory(), maj_key());

  EXPECT_FALSE(outcome.ok());
  ASSERT_EQ(outcome.failures.size(), 1u);
  const auto& f = outcome.failures.failures()[0];
  EXPECT_NE(f.job.find("row 3"), std::string::npos);
  EXPECT_EQ(f.status.code(), StatusCode::kTimeout);
  EXPECT_EQ(runner.stats().jobs_timed_out, 1u);
  // Healthy rows still came back.
  EXPECT_EQ(outcome.report.rows.size(), 8u);
  EXPECT_TRUE(outcome.report.rows[0].status.is_ok());
}

// --- failure class 4: corrupted cache spill ------------------------------

TEST(EngineResilience, CorruptSpillIsDetectedEvictedAndMissed) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "swsim_corrupt_test";
  std::filesystem::remove_all(dir);

  ResultCache cache(1, dir.string());
  cache.insert(1, {1.5, 2.5, 3.5});
  cache.insert(2, {9.0});  // evicts key 1 -> spilled
  const auto spill = dir / ResultCache::spill_filename(1);
  ASSERT_TRUE(std::filesystem::exists(spill));

  robust::FaultPlan::flip_bytes(spill.string(), /*seed=*/7);

  // The checksum catches the corruption: miss, counter bumped, file gone.
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.stats().spill_corrupt, 1u);
  EXPECT_FALSE(std::filesystem::exists(spill));

  // Recompute-and-reinsert makes the entry healthy again.
  cache.insert(1, {1.5, 2.5, 3.5});
  cache.insert(3, {4.0});  // spill key 1 again, uncorrupted this time
  const auto hit = cache.lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (std::vector<double>{1.5, 2.5, 3.5}));

  std::filesystem::remove_all(dir);
}

TEST(EngineResilience, CorruptSpillRecomputesByteIdenticalReport) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "swsim_corrupt_batch";
  std::filesystem::remove_all(dir);

  const auto factory = maj_factory();
  auto cold_gate = factory();
  const std::string cold =
      core::format_report(core::validate_gate(*cold_gate));

  EngineConfig cfg;
  cfg.jobs = 2;
  cfg.cache_capacity = 1;  // force rows out to disk
  cfg.spill_dir = dir.string();
  {
    BatchRunner warmup(cfg);
    warmup.run_truth_table(factory, maj_key());
  }

  // Corrupt every spilled row deterministically.
  std::size_t corrupted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    robust::FaultPlan::flip_bytes(entry.path().string(), /*seed=*/13);
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);

  // A fresh runner over the same spill dir detects the corruption, evicts,
  // recomputes — and the result is byte-identical to the cold run.
  BatchRunner runner(cfg);
  const auto report = runner.run_truth_table(factory, maj_key());
  EXPECT_EQ(core::format_report(report), cold);
  EXPECT_GE(runner.stats().cache.spill_corrupt, 1u);
  EXPECT_EQ(runner.stats().cache.hits, 0u);  // nothing corrupt was served

  std::filesystem::remove_all(dir);
}

// --- failure class 5: quarantine of poison configurations ----------------

TEST(EngineResilience, RepeatOffenderConfigIsQuarantined) {
  ScopedFaultPlan plan;
  // Two failed jobs in one batch reach the default threshold of 2.
  plan->inject_throw_in_job("row 1");
  plan->inject_throw_in_job("row 5");

  EngineConfig cfg;
  cfg.jobs = 2;
  cfg.use_cache = false;
  BatchRunner runner(cfg);

  const auto first = runner.run_truth_table_checked(maj_factory(), maj_key());
  EXPECT_EQ(first.failures.size(), 2u);
  EXPECT_TRUE(runner.is_quarantined(maj_key()));
  EXPECT_EQ(runner.stats().quarantined_configs, 1u);
  // The batch that crossed the threshold flags its failures as quarantining.
  EXPECT_TRUE(first.failures.failures()[0].quarantined);

  // A later call with the same key is refused outright: no jobs run.
  const auto before = runner.stats().jobs_executed;
  const auto second = runner.run_truth_table_checked(maj_factory(), maj_key());
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(runner.stats().jobs_executed, before);
  ASSERT_FALSE(second.failures.empty());
  EXPECT_EQ(second.failures.failures()[0].status.code(),
            StatusCode::kQuarantined);
  for (const auto& row : second.report.rows) {
    EXPECT_EQ(row.status.code(), StatusCode::kQuarantined);
  }

  // Other configurations are unaffected.
  core::TriangleGateConfig xor_cfg;
  xor_cfg.params = geom::TriangleGateParams::paper_xor();
  const BatchRunner::GateFactory xor_factory = [xor_cfg] {
    return std::make_unique<core::TriangleXorGate>(xor_cfg);
  };
  const auto other =
      runner.run_truth_table_checked(xor_factory, hash_of(xor_cfg));
  EXPECT_TRUE(other.ok());
}

// --- partial-batch determinism -------------------------------------------

TEST(EngineResilience, PartialBatchIsDeterministicAcrossJobCounts) {
  std::string ref;
  for (const std::size_t jobs : {1u, 4u}) {
    ScopedFaultPlan plan;
    plan->inject_throw_in_job("row 2");
    EngineConfig cfg;
    cfg.jobs = jobs;
    cfg.use_cache = false;
    BatchRunner runner(cfg);
    const auto outcome =
        runner.run_truth_table_checked(maj_factory(), maj_key());
    std::string rendered = core::format_report(outcome.report);
    for (auto row : outcome.failures.csv_rows()) {
      // Wall-clock columns (time, t_us, wall_s) legitimately differ
      // between runs; everything else must be byte-identical.
      row[5] = row[6] = row[8] = "";
      for (const auto& cell : row) rendered += cell + "|";
    }
    if (ref.empty()) {
      ref = rendered;
    } else {
      EXPECT_EQ(rendered, ref) << "jobs = " << jobs;
    }
  }
}

TEST(EngineResilience, YieldSurvivesLostChunkWithHonestStatistics) {
  core::TriangleGateConfig gate_cfg;
  const BatchRunner::TriangleFactory factory = [gate_cfg] {
    return std::make_unique<core::TriangleMajGate>(gate_cfg);
  };
  core::VariabilityModel model;
  model.sigma_phase = 0.35;
  model.sigma_amplitude = 0.08;
  model.seed = 11;

  double ref_yield = -1.0;
  for (const std::size_t jobs : {1u, 4u}) {
    ScopedFaultPlan plan;
    plan->inject_divergence_in_job("trials 16");  // loses trials 16..31

    EngineConfig cfg;
    cfg.jobs = jobs;
    BatchRunner runner(cfg);
    const YieldOutcome outcome =
        runner.run_yield_checked(factory, model, 100);

    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.requested_trials, 100u);
    EXPECT_EQ(outcome.report.trials, 84u);  // 100 minus the lost chunk
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_NE(outcome.failures.failures()[0].job.find("trials 16"),
              std::string::npos);
    EXPECT_GE(outcome.report.yield, 0.0);
    EXPECT_LE(outcome.report.yield, 1.0);
    // Per-trial RNG streams: the surviving trials are bit-identical for
    // any job count, so the partial yield is too.
    if (ref_yield < 0.0) {
      ref_yield = outcome.report.yield;
    } else {
      EXPECT_EQ(outcome.report.yield, ref_yield);
    }
  }
}

}  // namespace
}  // namespace swsim::engine
