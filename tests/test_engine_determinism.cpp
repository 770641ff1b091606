// The engine's headline guarantee: for a fixed workload the results are
// bit-identical for every job count, cold or warm cache, and identical to
// the serial reference path — for the wave-network and the LLG backend.
#include "engine/batch_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "core/micromag_gate.h"
#include "core/triangle_gate.h"
#include "core/validator.h"
#include "core/variability.h"
#include "engine/hash.h"
#include "mag/kernels/runtime.h"
#include "math/constants.h"
#include "serve/workload.h"

namespace swsim::engine {
namespace {

BatchRunner::GateFactory maj_factory() {
  core::TriangleGateConfig cfg;
  return [cfg] { return std::make_unique<core::TriangleMajGate>(cfg); };
}

BatchRunner::GateFactory xor_factory() {
  core::TriangleGateConfig cfg;
  cfg.params = geom::TriangleGateParams::paper_xor();
  return [cfg] { return std::make_unique<core::TriangleXorGate>(cfg); };
}

std::uint64_t maj_key() {
  return hash_of(core::TriangleGateConfig{});
}

TEST(EngineDeterminism, TruthTableMatchesSerialForAnyJobCount) {
  const auto factory = maj_factory();
  auto serial_gate = factory();
  const std::string serial =
      core::format_report(core::validate_gate(*serial_gate));

  for (const std::size_t jobs : {1u, 2u, 8u}) {
    EngineConfig cfg;
    cfg.jobs = jobs;
    BatchRunner runner(cfg);
    const auto report = runner.run_truth_table(factory, maj_key());
    EXPECT_EQ(core::format_report(report), serial)
        << "jobs = " << jobs;
  }
}

TEST(EngineDeterminism, XorTruthTableMatchesSerial) {
  const auto factory = xor_factory();
  auto serial_gate = factory();
  const std::string serial =
      core::format_report(core::validate_gate(*serial_gate));

  EngineConfig cfg;
  cfg.jobs = 4;
  BatchRunner runner(cfg);
  core::TriangleGateConfig gate_cfg;
  gate_cfg.params = geom::TriangleGateParams::paper_xor();
  const auto report = runner.run_truth_table(factory, hash_of(gate_cfg));
  EXPECT_EQ(core::format_report(report), serial);
}

TEST(EngineDeterminism, WarmCacheRunIsIdenticalAndAllHits) {
  EngineConfig cfg;
  cfg.jobs = 4;
  BatchRunner runner(cfg);
  const auto factory = maj_factory();

  const auto cold = runner.run_truth_table(factory, maj_key());
  const auto after_cold = runner.stats();
  EXPECT_EQ(after_cold.cache.hits, 0u);
  EXPECT_EQ(after_cold.cache.misses, cold.rows.size());

  const auto warm = runner.run_truth_table(factory, maj_key());
  const auto after_warm = runner.stats();
  EXPECT_EQ(core::format_report(warm), core::format_report(cold));
  EXPECT_EQ(after_warm.cache.hits, warm.rows.size());  // 100% warm hits
  EXPECT_EQ(after_warm.jobs_executed, after_cold.jobs_executed);
}

TEST(EngineDeterminism, MicromagSerialColdAndWarmAreByteIdentical) {
  // The LLG backend through the spec `swsim micromag` uses: one serial
  // gate (lazy calibration, rows in order), then the engine's shared
  // calibration job fanning out to row jobs, then an all-hit rerun. Coarse
  // 8 nm cells keep the solves short.
  serve::MicromagParams params;
  params.kind = "xor";
  params.cell_nm = 8.0;
  const auto spec = serve::make_micromag_spec(params);
  ASSERT_TRUE(spec.has_value());
  core::MicromagTriangleGate serial_gate(spec->config);
  const std::string serial =
      core::format_report(core::validate_gate(serial_gate));

  EngineConfig cfg;
  cfg.jobs = 2;
  BatchRunner runner(cfg);
  const auto cold =
      runner.run_truth_table(spec->factory, spec->key, spec->prepare);
  const auto after_cold = runner.stats();
  const auto warm =
      runner.run_truth_table(spec->factory, spec->key, spec->prepare);
  EXPECT_EQ(core::format_report(cold), serial);
  EXPECT_EQ(core::format_report(warm), serial);
  EXPECT_EQ(runner.stats().cache.hits, warm.rows.size());
  EXPECT_EQ(runner.stats().jobs_executed, after_cold.jobs_executed);
}

TEST(EngineDeterminism, SharedPoolCellJobsMatchSerialBytes) {
  // With cell_jobs > 1 the runner's pool also serves the LLG kernels: each
  // row's parallel_for queues a helper task from a worker while other rows
  // wait in the same FIFO queue. The 4 nm MAJ3 has 1103 active cells, more
  // than one SolveContext::kSlotGrain chunk, so every sweep really splits.
  // A 0.2 ns solve (about 4 drive periods) keeps the test short, and the
  // calibration is shared through `prepare`, as make_micromag_spec does.
  struct RestoreCellJobs {
    ~RestoreCellJobs() { mag::kernels::set_cell_jobs(1); }
  } restore;
  const auto spec = serve::make_micromag_spec(serve::MicromagParams{});
  ASSERT_TRUE(spec.has_value());
  core::MicromagGateConfig gate_cfg = spec->config;
  gate_cfg.duration = math::ns(0.2);

  const auto run = [&gate_cfg](std::size_t jobs, std::size_t cell_jobs) {
    auto calib = std::make_shared<std::optional<core::MicromagCalibration>>();
    const BatchRunner::GateFactory factory = [gate_cfg, calib] {
      auto gate = std::make_unique<core::MicromagTriangleGate>(gate_cfg);
      if (calib->has_value()) gate->set_calibration(**calib);
      return gate;
    };
    const auto prepare = [gate_cfg, calib] {
      core::MicromagTriangleGate gate(gate_cfg);
      *calib = gate.calibrate();
    };
    EngineConfig cfg;
    cfg.jobs = jobs;
    cfg.cell_jobs = cell_jobs;
    BatchRunner runner(cfg);
    return core::format_report(
        runner.run_truth_table(factory, hash_of(gate_cfg), prepare));
  };
  const std::string serial = run(1, 1);
  EXPECT_EQ(run(2, 2), serial);
}

TEST(EngineDeterminism, NoCacheModeStillDeterministic) {
  EngineConfig cfg;
  cfg.jobs = 4;
  cfg.use_cache = false;
  BatchRunner runner(cfg);
  const auto factory = maj_factory();
  const auto a = runner.run_truth_table(factory, maj_key());
  const auto b = runner.run_truth_table(factory, maj_key());
  EXPECT_EQ(core::format_report(a), core::format_report(b));
  EXPECT_EQ(runner.stats().cache.hits, 0u);
  EXPECT_EQ(runner.stats().cache.misses, 0u);
}

TEST(EngineDeterminism, PrepareRunsBeforeEveryRowJob) {
  auto prepared = std::make_shared<std::atomic<bool>>(false);
  auto violations = std::make_shared<std::atomic<int>>(0);

  core::TriangleGateConfig gate_cfg;
  const BatchRunner::GateFactory factory = [gate_cfg, prepared, violations] {
    if (!prepared->load()) ++(*violations);
    return std::make_unique<core::TriangleMajGate>(gate_cfg);
  };

  EngineConfig cfg;
  cfg.jobs = 4;
  BatchRunner runner(cfg);
  const auto report = runner.run_truth_table(
      factory, maj_key(), [prepared] { prepared->store(true); });
  EXPECT_TRUE(report.all_pass);
  // The probe instance is constructed before the prepare job runs and
  // legitimately sees prepared == false; every row job runs after the
  // prepare job, so exactly one "violation" (the probe) is expected.
  EXPECT_EQ(violations->load(), 1);
}

TEST(EngineDeterminism, YieldIdenticalForAnyJobCount) {
  core::TriangleGateConfig gate_cfg;
  const BatchRunner::TriangleFactory factory = [gate_cfg] {
    return std::make_unique<core::TriangleMajGate>(gate_cfg);
  };
  core::VariabilityModel model;
  model.sigma_phase = 0.35;
  model.sigma_amplitude = 0.08;
  model.seed = 11;

  core::YieldReport ref;
  bool have_ref = false;
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    EngineConfig cfg;
    cfg.jobs = jobs;
    BatchRunner runner(cfg);
    const auto r = runner.run_yield(factory, model, 100);
    EXPECT_EQ(r.trials, 100u);
    if (!have_ref) {
      ref = r;
      have_ref = true;
      continue;
    }
    EXPECT_EQ(r.passing, ref.passing) << "jobs = " << jobs;
    EXPECT_EQ(r.worst_row_failures, ref.worst_row_failures);
    EXPECT_EQ(r.yield, ref.yield);  // bitwise: fixed chunk fold order
    EXPECT_EQ(r.mean_worst_margin, ref.mean_worst_margin);
  }
}

TEST(EngineDeterminism, YieldRejectsBadArguments) {
  BatchRunner runner(EngineConfig{});
  core::TriangleGateConfig gate_cfg;
  const BatchRunner::TriangleFactory factory = [gate_cfg] {
    return std::make_unique<core::TriangleMajGate>(gate_cfg);
  };
  core::VariabilityModel model;
  EXPECT_THROW(runner.run_yield(factory, model, 0), std::invalid_argument);
  model.sigma_phase = -1.0;
  EXPECT_THROW(runner.run_yield(factory, model, 10), std::invalid_argument);
}

}  // namespace
}  // namespace swsim::engine
