// Numerical health watchdogs: state scans, energy divergence, and the
// step-halving recovery loop in Simulation::run_guarded.
#include "robust/watchdog.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "mag/simulation.h"
#include "math/constants.h"
#include "robust/cancel.h"
#include "robust/fault_injection.h"

namespace swsim::robust {
namespace {

using swsim::math::Grid;
using swsim::math::Mask;
using swsim::math::Vec3;
using swsim::math::VectorField;
using swsim::math::ps;

Grid tiny_grid() { return Grid(3, 2, 1, 5e-9, 5e-9, 1e-9); }

// The occupied cells of a mask, ascending: what a System's active-cell
// list holds for it.
std::vector<std::uint32_t> cells_of(const Mask& mask) {
  std::vector<std::uint32_t> cells;
  for (std::size_t i = 0; i < mask.grid().cell_count(); ++i) {
    if (mask[i]) cells.push_back(static_cast<std::uint32_t>(i));
  }
  return cells;
}

TEST(ScanMagnetization, CleanFieldPasses) {
  const VectorField m(tiny_grid(), Vec3{0, 0, 1});
  const Mask mask(tiny_grid(), true);
  EXPECT_TRUE(scan_magnetization(m, cells_of(mask), 0.25).is_ok());
}

TEST(ScanMagnetization, FlagsNanWithCellIndex) {
  VectorField m(tiny_grid(), Vec3{0, 0, 1});
  m[4].y = std::numeric_limits<double>::quiet_NaN();
  const Mask mask(tiny_grid(), true);
  const Status s = scan_magnetization(m, cells_of(mask), 0.25);
  EXPECT_EQ(s.code(), StatusCode::kNumericalDivergence);
  EXPECT_NE(s.message().find("cell 4"), std::string::npos);
}

TEST(ScanMagnetization, FlagsInf) {
  VectorField m(tiny_grid(), Vec3{0, 0, 1});
  m[0].z = std::numeric_limits<double>::infinity();
  const Mask mask(tiny_grid(), true);
  EXPECT_EQ(scan_magnetization(m, cells_of(mask), 0.25).code(),
            StatusCode::kNumericalDivergence);
}

TEST(ScanMagnetization, IgnoresUnmaskedCells) {
  VectorField m(tiny_grid(), Vec3{0, 0, 1});
  m[2].x = std::numeric_limits<double>::quiet_NaN();
  Mask mask(tiny_grid(), true);
  mask.set(2, false);  // poisoned cell is outside the magnet
  EXPECT_TRUE(scan_magnetization(m, cells_of(mask), 0.25).is_ok());
}

TEST(ScanMagnetization, FlagsNormDrift) {
  VectorField m(tiny_grid(), Vec3{0, 0, 1});
  m[1] = Vec3{0, 0, 1.5};  // |m| drifted by 0.5 > 0.25
  const Mask mask(tiny_grid(), true);
  const Status s = scan_magnetization(m, cells_of(mask), 0.25);
  EXPECT_EQ(s.code(), StatusCode::kNumericalDivergence);
  EXPECT_NE(s.message().find("drift"), std::string::npos);
  // Drift check disabled: the same field passes (NaN scan only).
  EXPECT_TRUE(scan_magnetization(m, cells_of(mask), 0.0).is_ok());
}

TEST(ScanMagnetization, CheckCellWordsEveryScanAlike) {
  // The kernel path's slot scan reports through check_cell too, so its
  // trips read like the AoS scan's, naming the flat cell.
  VectorField m(tiny_grid(), Vec3{0, 0, 1});
  m[5] = Vec3{0, 0, 1.5};
  const Mask mask(tiny_grid(), true);
  const Status scan = scan_magnetization(m, cells_of(mask), 0.25);
  const Status cell = check_cell(m[5], 5, 0.25);
  EXPECT_EQ(scan.code(), cell.code());
  EXPECT_EQ(scan.message(), cell.message());
  EXPECT_EQ(cell.message(), "|m| drift 0.500000 at cell 5");
  EXPECT_EQ(check_cell(Vec3{0, std::numeric_limits<double>::quiet_NaN(), 1},
                       7, 0.25)
                .message(),
            "non-finite magnetization at cell 7");
  EXPECT_TRUE(check_cell(m[0], 0, 0.25).is_ok());
}

TEST(EnergyWatchdog, FirstCheckArmsReference) {
  EnergyWatchdog dog;
  EXPECT_TRUE(dog.check(1e-18, 1e3).is_ok());   // arms
  EXPECT_TRUE(dog.check(5e-16, 1e3).is_ok());   // 500x — under 1e3
  const Status s = dog.check(2e-15, 1e3);       // 2000x — over
  EXPECT_EQ(s.code(), StatusCode::kNumericalDivergence);
  EXPECT_NE(s.message().find("energy grew"), std::string::npos);
}

TEST(EnergyWatchdog, ResetRearms) {
  EnergyWatchdog dog;
  EXPECT_TRUE(dog.check(1e-18, 1e3).is_ok());
  dog.reset();
  // New reference: what previously looked like 1e6x growth is now baseline.
  EXPECT_TRUE(dog.check(1e-12, 1e3).is_ok());
  EXPECT_TRUE(dog.check(2e-12, 1e3).is_ok());
}

TEST(EnergyWatchdog, ZeroEnergyStartToleratesFirstRealEnergy) {
  EnergyWatchdog dog;
  EXPECT_TRUE(dog.check(0.0, 1e3).is_ok());    // ~zero: no signal yet
  EXPECT_TRUE(dog.check(1e-31, 1e3).is_ok());  // numerical noise: ratchets
  // The first physically meaningful energy (the drive ramping up) is a
  // healthy baseline, not "nine orders of magnitude of growth" over a
  // noise-level reference.
  EXPECT_TRUE(dog.check(1e-18, 1e3).is_ok());
  EXPECT_TRUE(dog.check(5e-16, 1e3).is_ok());   // 500x — under 1e3
  EXPECT_FALSE(dog.check(2e-15, 1e3).is_ok());  // 2000x — enforced
}

TEST(EnergyWatchdog, WarmupChecksOnlyRatchetTheReference) {
  EnergyWatchdog dog;
  EXPECT_TRUE(dog.check(1e-18, 10.0, 3).is_ok());
  EXPECT_TRUE(dog.check(1e-16, 10.0, 3).is_ok());  // 100x: still warming up
  EXPECT_TRUE(dog.check(5e-16, 10.0, 3).is_ok());  // ratchets the reference
  EXPECT_TRUE(dog.check(1e-15, 10.0, 3).is_ok());  // 2x the ratcheted max
  const Status s = dog.check(6e-15, 10.0, 3);      // 12x: now enforced
  EXPECT_EQ(s.code(), StatusCode::kNumericalDivergence);
}

TEST(EnergyWatchdog, NonFiniteEnergyFails) {
  EnergyWatchdog dog;
  EXPECT_EQ(dog.check(std::numeric_limits<double>::quiet_NaN(), 1e3).code(),
            StatusCode::kNumericalDivergence);
}

// --- run_guarded recovery ------------------------------------------------

mag::System small_system() {
  return mag::System(Grid(4, 4, 1, 5e-9, 5e-9, 1e-9),
                     mag::Material::fecob());
}

TEST(RunGuarded, RecoversFromInjectedNanByHalvingStep) {
  ScopedFaultPlan plan;
  plan->inject_nan_at_step(8);  // budget 1: only the first attempt is hit

  mag::Simulation sim(small_system());
  sim.add_standard_terms();
  sim.set_stepper(mag::StepperKind::kRk4, ps(0.1));
  WatchdogConfig dog;
  dog.cadence = 4;  // detection lands on the poisoned step itself
  sim.set_watchdog(dog);

  const Status s = sim.run_guarded(ps(5));
  EXPECT_TRUE(s.is_ok()) << s.str();
  // The interval was re-solved end to end after the rewind.
  EXPECT_NEAR(sim.time(), ps(5), ps(0.2));
  // Recovery halved the step: the active stepper now runs at dt/2.
  EXPECT_NEAR(sim.stepper_stats().last_dt, ps(0.05), 1e-18);
}

TEST(RunGuarded, ExhaustsHalvingBudgetOnPersistentDivergence) {
  ScopedFaultPlan plan;
  // Enough budget that every retry (attempt 1 + 3 halvings) is poisoned.
  plan->inject_nan_at_step(8, /*times=*/10);

  mag::Simulation sim(small_system());
  sim.add_standard_terms();
  sim.set_stepper(mag::StepperKind::kRk4, ps(0.1));
  WatchdogConfig dog;
  dog.cadence = 4;
  dog.max_step_halvings = 3;
  sim.set_watchdog(dog);

  const Status s = sim.run_guarded(ps(5));
  EXPECT_EQ(s.code(), StatusCode::kNumericalDivergence);
  EXPECT_NE(s.message().find("non-finite"), std::string::npos);
}

TEST(RunGuarded, CancellationIsReturnedNotRetried) {
  mag::Simulation sim(small_system());
  sim.add_standard_terms();
  sim.set_stepper(mag::StepperKind::kRk4, ps(0.1));
  CancelToken token;
  token.request_cancel();  // cancelled before the first step
  sim.set_cancel_token(token);

  const Status s = sim.run_guarded(ps(5));
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  // No forward progress and no step-halving attempts were made.
  EXPECT_DOUBLE_EQ(sim.time(), 0.0);
}

TEST(RunGuarded, ProcessCancelReachesASolveWithoutAToken) {
  // A solve nobody handed a token (the engine's shared calibration, say)
  // still stops on a process-wide cancel: the daemon's force-cancel on a
  // second SIGTERM.
  struct ResetProcessCancel {
    ~ResetProcessCancel() { reset_process_cancel(); }
  } reset;
  mag::Simulation sim(small_system());
  sim.add_standard_terms();
  sim.set_stepper(mag::StepperKind::kRk4, ps(0.1));
  request_process_cancel();

  const Status s = sim.run_guarded(ps(5));
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_DOUBLE_EQ(sim.time(), 0.0);
}

TEST(RunGuarded, PlainRunThrowsWhereGuardedReturns) {
  ScopedFaultPlan plan;
  plan->inject_nan_at_step(8);

  mag::Simulation sim(small_system());
  sim.add_standard_terms();
  sim.set_stepper(mag::StepperKind::kRk4, ps(0.1));
  WatchdogConfig dog;
  dog.cadence = 4;
  sim.set_watchdog(dog);

  EXPECT_THROW(sim.run(ps(5)), SolveError);
}

}  // namespace
}  // namespace swsim::robust
