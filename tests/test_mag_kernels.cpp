// Bit-exactness contract of the fused SoA kernel path.
//
// The kernel layer (src/mag/kernels/) promises byte-identical output to
// the scalar reference steppers for every stepper kind, every term set it
// lowers, and ANY intra-solve job count. These tests hold it to that with
// memcmp over the raw Vec3 bytes — no tolerances anywhere — on masked
// geometries that exercise the neighbour table's gathers, absent-neighbour
// self entries, overlapping last blocks and the antenna gate at once: a
// triangle, a box with interior holes, two- and three-layer grids (the ±z
// neighbours), and a layout smaller than any lane width. Every lane-width
// variant the host CPU runs is checked against the SSE2 baseline and the
// reference. One test arms the metrics registry around a solve: armed
// telemetry must not change a byte either.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/ovf.h"
#include "mag/anisotropy_field.h"
#include "mag/demag_field.h"
#include "mag/exchange_field.h"
#include "mag/kernels/plan.h"
#include "mag/kernels/runtime.h"
#include "mag/kernels/soa.h"
#include "mag/kernels/sweep.h"
#include "mag/llg.h"
#include "mag/material.h"
#include "mag/simulation.h"
#include "mag/system.h"
#include "mag/thermal_field.h"
#include "mag/zeeman_field.h"
#include "math/constants.h"
#include "math/field.h"
#include "obs/metrics.h"
#include "robust/cancel.h"
#include "robust/fault_injection.h"
#include "robust/status.h"

namespace swsim::mag {
namespace {

using swsim::math::Grid;
using swsim::math::Mask;
using swsim::math::Vec3;
using swsim::math::VectorField;

// Restores the process-wide kernel knobs no matter how a test exits.
struct KernelModeGuard {
  ~KernelModeGuard() {
    kernels::set_force_reference(-1);
    kernels::set_cell_jobs(1);
  }
};

Grid make_grid() { return Grid(24, 16, 1, 4e-9, 4e-9, 10e-9); }

// Right-triangle footprint: row y keeps x in [0, nx - y). Long rows low
// in the triangle, short rows near the apex, and a diagonal boundary
// whose cells have absent +x/+y neighbours.
Mask triangle_mask(const Grid& g) {
  Mask mask(g, false);
  for (std::size_t y = 0; y < g.ny(); ++y) {
    for (std::size_t x = 0; x < g.nx(); ++x) {
      if (x + y < g.nx()) mask.set(g.index(x, y, 0), true);
    }
  }
  return mask;
}

// Antenna footprint: a column band from the grid's left border through
// every layer, deliberately wider than the mask so region ∧ mask matters.
// Blocks of slots straddle its edge, so the gate selects lane by lane.
Mask antenna_region(const Grid& g) {
  Mask region(g, false);
  for (std::size_t z = 0; z < g.nz(); ++z) {
    for (std::size_t y = 0; y < g.ny(); ++y) {
      for (std::size_t x = 0; x < 8 && x < g.nx(); ++x) {
        region.set(g.index(x, y, z), true);
      }
    }
  }
  return region;
}

// A geometry under test. The holes and layered layouts hold more than
// SolveContext::kSlotGrain (1024) active cells, so cell_jobs > 1 really
// splits their sweeps into several chunks.
struct Layout {
  const char* name;
  Grid grid;
  Mask mask;
};

Layout triangle_layout() {
  const Grid g = make_grid();
  return {"triangle", g, triangle_mask(g)};
}

// A box with ragged corners and interior vacuum holes. A 2x1 hole splits
// its row in two, and its -y/+y neighbour rows are unbroken there, so
// the ±y slot distance differs by two on either side of it; a 3x3 hole
// and a one-cell hole cut the rows around them.
Layout holes_layout() {
  const Grid g(44, 28, 1, 4e-9, 4e-9, 10e-9);
  Mask mask(g, false);
  const std::size_t nx = g.nx(), ny = g.ny();
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) {
      const bool corner = x + y < 3 || (nx - 1 - x) + (ny - 1 - y) < 2;
      const bool hole = (y == 9 && (x == 20 || x == 21)) ||
                        (x >= 30 && x <= 32 && y >= 16 && y <= 18) ||
                        (x == 9 && y == 21);
      if (!corner && !hole) mask.set(g.index(x, y, 0), true);
    }
  }
  return {"holes", g, mask};
}

// A layered box: layer z keeps x in [z, nx - z) minus a one-cell hole
// per layer at a different column, so ±z neighbours are absent along the
// layer edges and around each hole.
Layout layered_layout(std::size_t nz) {
  const Grid g(30, 18, nz, 4e-9, 4e-9, 5e-9);
  Mask mask(g, false);
  for (std::size_t z = 0; z < nz; ++z) {
    for (std::size_t y = 0; y < g.ny(); ++y) {
      for (std::size_t x = z; x + z < g.nx(); ++x) {
        if (y == 8 && x == 10 + 4 * z) continue;
        mask.set(g.index(x, y, z), true);
      }
    }
  }
  return {nz == 2 ? "two_layers" : "three_layers", g, mask};
}

std::vector<Layout> layouts() {
  return {triangle_layout(), holes_layout(), layered_layout(2),
          layered_layout(3)};
}

// Five active cells, an L in a 3x3 grid inside the antenna band: fewer
// slots than the widest lane variant's block.
Layout tiny_layout() {
  const Grid g(3, 3, 1, 4e-9, 4e-9, 10e-9);
  Mask mask(g, false);
  for (std::size_t x = 0; x < 3; ++x) mask.set(g.index(x, 0, 0), true);
  mask.set(g.index(0, 1, 0), true);
  mask.set(g.index(0, 2, 0), true);
  return {"tiny", g, mask};
}

// Every kernel-lowerable term at once. Without exchange no op reaches
// off-cell, and every neighbour table entry is the slot itself.
std::vector<std::unique_ptr<FieldTerm>> make_terms(const Grid& g,
                                                   bool exchange = true) {
  std::vector<std::unique_ptr<FieldTerm>> terms;
  if (exchange) terms.push_back(std::make_unique<ExchangeField>());
  terms.push_back(std::make_unique<UniaxialAnisotropyField>(Vec3{0, 0, 1}));
  terms.push_back(std::make_unique<ThinFilmDemagField>());
  terms.push_back(std::make_unique<UniformZeemanField>(Vec3{0, 0, 2.0e4}));
  terms.push_back(std::make_unique<AntennaField>(antenna_region(g), 5.0e3,
                                                 Vec3{1, 0, 0}, 2.6e9, 0.3));
  return terms;
}

VectorField initial_m(const System& sys) {
  VectorField m(sys.grid());
  const auto& mask = sys.mask();
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!mask[i]) continue;
    const double a = 0.37 * static_cast<double>(i);
    m[i] = swsim::math::normalized(
        Vec3{0.15 * std::sin(a), 0.15 * std::cos(1.7 * a), 1.0});
  }
  return m;
}

struct RunResult {
  VectorField m;
  StepperStats stats;
};

// Runs `steps` stepper calls on `layout` under the given kernel mode and
// job count. ref_mode: 1 = scalar reference oracle, 0 = fused kernel path.
RunResult run_layout(const Layout& layout, StepperKind kind, int ref_mode,
                     std::size_t cell_jobs, std::size_t steps, double dt,
                     double tolerance = 1e-5, bool exchange = true) {
  KernelModeGuard guard;
  kernels::set_force_reference(ref_mode);
  kernels::set_cell_jobs(cell_jobs);

  const System sys(layout.grid, Material::fecob(), layout.mask);
  auto terms = make_terms(layout.grid, exchange);
  VectorField m = initial_m(sys);

  Stepper stepper(kind, dt, tolerance);
  double t = 0.0;
  for (std::size_t s = 0; s < steps; ++s) t += stepper.step(sys, terms, m, t);
  return RunResult{std::move(m), stepper.stats()};
}

// run_layout on the triangle.
RunResult run_steps(StepperKind kind, int ref_mode, std::size_t cell_jobs,
                    std::size_t steps, double dt, double tolerance = 1e-5) {
  return run_layout(triangle_layout(), kind, ref_mode, cell_jobs, steps, dt,
                    tolerance);
}

::testing::AssertionResult bytes_identical(const VectorField& a,
                                           const VectorField& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  if (std::memcmp(a.data().data(), b.data().data(),
                  a.size() * sizeof(Vec3)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(Vec3)) != 0) {
      return ::testing::AssertionFailure()
             << "first byte difference at cell " << i << ": (" << a[i].x
             << ", " << a[i].y << ", " << a[i].z << ") vs (" << b[i].x << ", "
             << b[i].y << ", " << b[i].z << ")";
    }
  }
  return ::testing::AssertionFailure() << "padding bytes differ";
}

TEST(KernelBitExact, HeunMatchesReference) {
  const auto ref = run_steps(StepperKind::kHeun, 1, 1, 25, 2e-13);
  const auto fused = run_steps(StepperKind::kHeun, 0, 1, 25, 2e-13);
  EXPECT_TRUE(bytes_identical(ref.m, fused.m));
  EXPECT_EQ(ref.stats.field_evaluations, fused.stats.field_evaluations);
}

TEST(KernelBitExact, Rk4MatchesReference) {
  const auto ref = run_steps(StepperKind::kRk4, 1, 1, 25, 2e-13);
  const auto fused = run_steps(StepperKind::kRk4, 0, 1, 25, 2e-13);
  EXPECT_TRUE(bytes_identical(ref.m, fused.m));
  EXPECT_EQ(ref.stats.field_evaluations, fused.stats.field_evaluations);
}

TEST(KernelBitExact, Rkf45MatchesReferenceIncludingStepControl) {
  const auto ref = run_steps(StepperKind::kRkf45, 1, 1, 25, 2e-13);
  const auto fused = run_steps(StepperKind::kRkf45, 0, 1, 25, 2e-13);
  EXPECT_TRUE(bytes_identical(ref.m, fused.m));
  // The embedded error estimate feeds the step controller; identical bytes
  // require the accept/reject history and final dt to agree exactly.
  EXPECT_EQ(ref.stats.steps_taken, fused.stats.steps_taken);
  EXPECT_EQ(ref.stats.steps_rejected, fused.stats.steps_rejected);
  EXPECT_EQ(ref.stats.field_evaluations, fused.stats.field_evaluations);
  EXPECT_EQ(ref.stats.last_dt, fused.stats.last_dt);
}

TEST(KernelBitExact, Rkf45StepHalvingRecoveryMatches) {
  // A tolerance tight enough that the initial dt is rejected and halved:
  // the recovery path (reject, shrink, retry) must replay identically.
  const auto ref = run_steps(StepperKind::kRkf45, 1, 1, 12, 5e-12, 1e-13);
  const auto fused = run_steps(StepperKind::kRkf45, 0, 1, 12, 5e-12, 1e-13);
  ASSERT_GT(ref.stats.steps_rejected, 0u)
      << "tolerance did not force a rejection; tighten the test";
  EXPECT_EQ(ref.stats.steps_rejected, fused.stats.steps_rejected);
  EXPECT_EQ(ref.stats.last_dt, fused.stats.last_dt);
  EXPECT_TRUE(bytes_identical(ref.m, fused.m));
}

// Steps until the watchdog throws; returns the number of completed steps.
std::size_t steps_until_trip(int ref_mode) {
  KernelModeGuard guard;
  kernels::set_force_reference(ref_mode);
  robust::ScopedFaultPlan plan;
  plan->inject_nan_at_step(5);

  const Grid g = make_grid();
  const System sys(g, Material::fecob(), triangle_mask(g));
  auto terms = make_terms(g);
  VectorField m = initial_m(sys);

  Stepper stepper(StepperKind::kRk4, 2e-13);
  robust::WatchdogConfig wd;
  wd.cadence = 1;
  stepper.set_watchdog(wd);

  double t = 0.0;
  for (std::size_t s = 0; s < 32; ++s) {
    try {
      t += stepper.step(sys, terms, m, t);
    } catch (const robust::SolveError&) {
      return s;
    }
  }
  ADD_FAILURE() << "watchdog never tripped";
  return static_cast<std::size_t>(-1);
}

TEST(KernelBitExact, WatchdogTripsAtTheSameStep) {
  // The kernel path pokes the injected NaN into slot 0 and scans its
  // slots; the reference pokes and scans the AoS field. Slot 0 is the
  // first active cell, so the scan must fire on the identical step index
  // in both modes.
  EXPECT_EQ(steps_until_trip(1), steps_until_trip(0));
}

// Delegates every call to `inner` and requests a cancel on `token` once
// `steps` steps have begun, so Simulation::run throws at its next poll:
// the same step on both paths.
class CancelAfterSteps final : public FieldTerm {
 public:
  CancelAfterSteps(std::unique_ptr<FieldTerm> inner, robust::CancelToken token,
                   std::size_t steps)
      : inner_(std::move(inner)), token_(std::move(token)), steps_(steps) {}
  std::string name() const override { return inner_->name(); }
  void accumulate(const System& sys, const VectorField& m, double t,
                  VectorField& h) override {
    inner_->accumulate(sys, m, t, h);
  }
  double energy(const System& sys, const VectorField& m) const override {
    return inner_->energy(sys, m);
  }
  void advance_step(double dt) override {
    inner_->advance_step(dt);
    if (++begun_ == steps_) token_.request_cancel();
  }
  bool compile_kernel(const System& sys, kernels::TermOp& op) const override {
    return inner_->compile_kernel(sys, op);
  }

 private:
  std::unique_ptr<FieldTerm> inner_;
  robust::CancelToken token_;
  std::size_t steps_;
  std::size_t begun_ = 0;
};

struct SimRun {
  VectorField m;
  StepperStats stats;
  std::vector<std::vector<double>> series;  // t, mx, my, mz per probe:
                                            // [0..3] drive, [4..7] apex
  std::string error;                        // the SolveError's, if any
};

// One Simulation::run of 40 steps on the triangle with its antenna, every
// sample of two probes due mid-run (every 3rd and 7th step) and the
// watchdog at `cadence` (the state scan, plus the energy check). A NaN is
// poked at step `nan_at`, and the run's token cancelled after step
// `cancel_at`, when nonzero.
SimRun sim_run(int ref_mode, StepperKind kind, std::size_t cadence,
               std::size_t nan_at = 0, std::size_t cancel_at = 0) {
  KernelModeGuard guard;
  kernels::set_force_reference(ref_mode);
  robust::ScopedFaultPlan plan;
  if (nan_at > 0) plan->inject_nan_at_step(nan_at);
  const Layout layout = triangle_layout();
  const double dt = 2e-13;
  Simulation sim(System(layout.grid, Material::fecob(), layout.mask));
  robust::CancelToken token;
  for (auto& term : make_terms(layout.grid)) {
    if (cancel_at > 0 && term->name() == "exchange") {
      term = std::make_unique<CancelAfterSteps>(std::move(term), token,
                                                cancel_at);
    }
    sim.add_term(std::move(term));
  }
  sim.set_stepper(kind, dt);
  robust::WatchdogConfig wd;
  wd.cadence = cadence;
  sim.set_watchdog(wd);
  sim.set_cancel_token(token);
  sim.set_magnetization(initial_m(sim.system()));
  Mask apex(layout.grid, false);
  for (std::size_t y = 8; y < layout.grid.ny(); ++y) {
    for (std::size_t x = 0; x < 4; ++x) apex.set(layout.grid.index(x, y), true);
  }
  sim.add_probe("drive", antenna_region(layout.grid), 3 * dt);
  sim.add_probe("apex", apex, 7 * dt);
  SimRun r;
  try {
    sim.run(40 * dt);
  } catch (const robust::SolveError& e) {
    r.error = e.status().str();
  }
  r.m = sim.magnetization();
  r.stats = sim.stepper_stats();
  for (const char* name : {"drive", "apex"}) {
    const RegionProbe& p = sim.probe(name);
    for (const auto* v : {&p.times(), &p.mx(), &p.my(), &p.mz()}) {
      r.series.push_back(*v);
    }
  }
  return r;
}

::testing::AssertionResult runs_identical(const SimRun& a, const SimRun& b) {
  if (auto m = bytes_identical(a.m, b.m); !m) return m;
  if (std::memcmp(&a.stats, &b.stats, sizeof(StepperStats)) != 0) {
    return ::testing::AssertionFailure()
           << "stepper stats differ: " << a.stats.steps_taken << " vs "
           << b.stats.steps_taken << " steps";
  }
  if (a.series.size() != b.series.size()) {
    return ::testing::AssertionFailure() << "probe series count differs";
  }
  for (std::size_t j = 0; j < a.series.size(); ++j) {
    const auto& x = a.series[j];
    const auto& y = b.series[j];
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0) {
      return ::testing::AssertionFailure() << "probe series " << j
                                           << " differs";
    }
  }
  if (a.error != b.error) {
    return ::testing::AssertionFailure()
           << "errors differ: '" << a.error << "' vs '" << b.error << "'";
  }
  return ::testing::AssertionSuccess();
}

TEST(KernelBitExact, SimulationRunMatchesReference) {
  // The kernel path keeps its state in slots for the whole run and writes
  // the field for each probe sample and energy check and at the end; the
  // reference steps the field itself. Every stepper, byte for byte.
  for (const StepperKind kind :
       {StepperKind::kHeun, StepperKind::kRk4, StepperKind::kRkf45}) {
    SCOPED_TRACE(::testing::Message() << "stepper " << static_cast<int>(kind));
    const SimRun ref = sim_run(1, kind, 1);
    const SimRun fused = sim_run(0, kind, 1);
    ASSERT_TRUE(ref.error.empty()) << ref.error;
    ASSERT_GE(ref.stats.steps_taken, 14u);
    ASSERT_GE(ref.series[0].size(), 5u);
    ASSERT_GE(ref.series[4].size(), 3u);
    EXPECT_TRUE(runs_identical(ref, fused));
  }
}

TEST(KernelBitExact, SimulationRunThatThrowsStoresTheSameState) {
  // A run that throws mid-solve leaves the field where the reference
  // leaves it. The NaN trips the slot scan inside a step (the poked,
  // unrenormalized state); the cancel throws between steps. Without a
  // watchdog no energy check writes the field, so only the residency's
  // store on the way out can.
  const SimRun nan_ref = sim_run(1, StepperKind::kRk4, 1, 9);
  const SimRun nan_fused = sim_run(0, StepperKind::kRk4, 1, 9);
  EXPECT_NE(nan_ref.error.find("non-finite magnetization at cell"),
            std::string::npos)
      << nan_ref.error;
  EXPECT_TRUE(runs_identical(nan_ref, nan_fused));

  for (const std::size_t cadence : {0u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "cadence " << cadence);
    const SimRun cancel_ref = sim_run(1, StepperKind::kRk4, cadence, 0, 11);
    const SimRun cancel_fused = sim_run(0, StepperKind::kRk4, cadence, 0, 11);
    EXPECT_NE(cancel_ref.error.find("cancelled"), std::string::npos)
        << cancel_ref.error;
    EXPECT_EQ(cancel_ref.stats.steps_taken, 11u);
    EXPECT_TRUE(runs_identical(cancel_ref, cancel_fused));
  }
}

TEST(KernelBitExact, ResidencyHandsTheStateOverAtEveryBoundary) {
  // Inside one residency scope: kernel steps, a term set change (the plan
  // is rebuilt, so the old context's state must be stored first), steps
  // forced onto the reference (which step the field itself), and kernel
  // steps again. The field after the scope matches an all-reference run.
  const Layout layout = triangle_layout();
  const System sys(layout.grid, Material::fecob(), layout.mask);
  auto run = [&](bool kernels_allowed) {
    KernelModeGuard guard;
    kernels::set_force_reference(kernels_allowed ? 0 : 1);
    auto full = make_terms(layout.grid);
    auto no_exchange = make_terms(layout.grid, false);
    VectorField m = initial_m(sys);
    Stepper stepper(StepperKind::kRk4, 2e-13);
    double t = 0.0;
    {
      Stepper::Resident resident(stepper, m);
      for (int s = 0; s < 4; ++s) t += stepper.step(sys, full, m, t);
      for (int s = 0; s < 3; ++s) t += stepper.step(sys, no_exchange, m, t);
      kernels::set_force_reference(1);
      for (int s = 0; s < 3; ++s) t += stepper.step(sys, full, m, t);
      kernels::set_force_reference(kernels_allowed ? 0 : 1);
      for (int s = 0; s < 3; ++s) t += stepper.step(sys, full, m, t);
    }
    return m;
  };
  EXPECT_TRUE(bytes_identical(run(false), run(true)));
}

TEST(EnergyOnActiveCells, EqualsTheGridSums) {
  // The energies walk the active list. On a state with +0.0 vacuum the
  // grid sums they replaced only add exact zeros there, so both agree bit
  // for bit: exchange against its accumulate() over the grid, the others
  // against their masked grid loops.
  using swsim::math::kMu0;
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (const Layout& layout : layouts()) {
    SCOPED_TRACE(layout.name);
    const System sys(layout.grid, Material::fecob(), layout.mask);
    const VectorField m = initial_m(sys);
    const auto& mask = sys.mask();
    const double vol = layout.grid.cell_volume();

    ExchangeField exchange;
    VectorField h(layout.grid);
    exchange.accumulate(sys, m, 0.0, h);
    double e = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) {
      e += sys.ms_at(i) * dot(m[i], h[i]);
    }
    EXPECT_TRUE(same_bits(exchange.energy(sys, m), -0.5 * kMu0 * e * vol));
    EXPECT_NE(e, 0.0);

    const UniaxialAnisotropyField anisotropy(Vec3{0, 0, 1});
    e = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (!mask[i]) continue;
      const double proj = dot(m[i], Vec3{0, 0, 1});
      e += 1.0 - proj * proj;
    }
    EXPECT_TRUE(same_bits(anisotropy.energy(sys, m),
                          sys.material().ku * e * vol));

    const ThinFilmDemagField demag;
    e = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (!mask[i]) continue;
      const double mz = m[i].z * sys.ms_at(i);
      e += mz * mz;
    }
    EXPECT_TRUE(same_bits(demag.energy(sys, m), 0.5 * kMu0 * e * vol));

    const Vec3 hz{1.0e3, -2.0e3, 2.0e4};
    const UniformZeemanField zeeman(hz);
    e = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (mask[i]) e += sys.ms_at(i) * dot(m[i], hz);
    }
    EXPECT_TRUE(same_bits(zeeman.energy(sys, m), -kMu0 * e * vol));
  }
}

TEST(KernelBitExact, SlotOffsetLayoutsMatchReferenceAtEveryJobCount) {
  // Holes make the ±y slot distances vary along a row; the layered grids
  // add ±z neighbours, and their border layers out-of-grid ones, which
  // read the slot itself (with exchange; without it no op reads a
  // neighbour).
  for (const Layout& layout : layouts()) {
    for (const bool exchange : {true, false}) {
      for (const StepperKind kind : {StepperKind::kRk4, StepperKind::kRkf45}) {
        const auto ref =
            run_layout(layout, kind, 1, 1, 20, 2e-13, 1e-5, exchange);
        for (const std::size_t jobs : {1u, 2u, 8u}) {
          const auto fused =
              run_layout(layout, kind, 0, jobs, 20, 2e-13, 1e-5, exchange);
          EXPECT_TRUE(bytes_identical(ref.m, fused.m))
              << layout.name << " exchange " << exchange << " stepper "
              << static_cast<int>(kind) << " cell_jobs " << jobs;
          EXPECT_EQ(ref.stats.steps_rejected, fused.stats.steps_rejected);
          EXPECT_EQ(ref.stats.field_evaluations,
                    fused.stats.field_evaluations);
          EXPECT_EQ(ref.stats.last_dt, fused.stats.last_dt);
        }
      }
    }
  }
}

TEST(KernelBitExact, VacuumIsPositiveZeroOnBothPaths) {
  // The kernel path never writes a vacuum cell; the reference adds +0.0
  // to it. Simulation::set_magnetization canonicalizes vacuum to +0.0, so
  // -0.0 or nonzero input there cannot make the two paths differ.
  const Layout layout = triangle_layout();
  const System sys(layout.grid, Material::fecob(), layout.mask);
  VectorField input = initial_m(sys);
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (layout.mask[i]) continue;
    input[i] = i % 2 == 0 ? Vec3{-0.0, -0.0, -0.0} : Vec3{0.5, -0.0, -2.0};
  }
  auto run = [&](int ref_mode) {
    KernelModeGuard guard;
    kernels::set_force_reference(ref_mode);
    Simulation sim(sys);
    for (auto& term : make_terms(layout.grid)) sim.add_term(std::move(term));
    sim.set_stepper(StepperKind::kRk4, 2e-13);
    sim.set_magnetization(input);
    sim.run(12 * 2e-13);
    EXPECT_GE(sim.stepper_stats().steps_taken, 12u);
    return sim.magnetization();
  };
  const VectorField ref = run(1);
  const VectorField fused = run(0);
  EXPECT_TRUE(bytes_identical(ref, fused));
  const Vec3 zero{};
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (layout.mask[i]) continue;
    EXPECT_EQ(std::memcmp(&ref[i], &zero, sizeof(Vec3)), 0)
        << "vacuum cell " << i << " is not +0.0";
  }
}

TEST(KernelBitExact, ArmedMetricsLeaveTheSolveByteIdentical) {
  // Armed telemetry must observe the fused solve, never change which code
  // evaluates it: the triangle with its antenna, every stepper, disarmed
  // vs armed, byte for byte. The evaluations are counted, and no term is
  // timed on its own (kernel solves time whole evaluations only).
  struct Disarm {
    ~Disarm() { obs::MetricsRegistry::disarm(); }
  } disarm;
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter& evals = reg.counter("mag.field_evals");
  const auto term_us = [&] {
    std::uint64_t sum = 0;
    for (const auto& [name, us] : reg.counters_snapshot()) {
      if (name.rfind("mag.term.", 0) == 0) sum += us;
    }
    return sum;
  };
  for (const StepperKind kind :
       {StepperKind::kHeun, StepperKind::kRk4, StepperKind::kRkf45}) {
    obs::MetricsRegistry::disarm();
    const auto plain = run_steps(kind, 0, 1, 40, 2e-13);
    obs::MetricsRegistry::arm();
    const std::uint64_t evals_before = evals.value();
    const std::uint64_t term_us_before = term_us();
    const auto armed = run_steps(kind, 0, 1, 40, 2e-13);
    obs::MetricsRegistry::disarm();
    ASSERT_GE(armed.stats.field_evaluations, 64u);
    EXPECT_TRUE(bytes_identical(plain.m, armed.m))
        << "stepper " << static_cast<int>(kind);
    EXPECT_EQ(plain.stats.field_evaluations, armed.stats.field_evaluations);
    EXPECT_EQ(plain.stats.last_dt, armed.stats.last_dt);
    EXPECT_EQ(evals.value() - evals_before, armed.stats.field_evaluations);
    EXPECT_EQ(term_us(), term_us_before);
  }
}

TEST(KernelDeterminism, CellJobsDoNotChangeBytes) {
  const auto serial = run_steps(StepperKind::kRk4, 0, 1, 20, 2e-13);
  const auto jobs2 = run_steps(StepperKind::kRk4, 0, 2, 20, 2e-13);
  const auto jobs8 = run_steps(StepperKind::kRk4, 0, 8, 20, 2e-13);
  EXPECT_TRUE(bytes_identical(serial.m, jobs2.m));
  EXPECT_TRUE(bytes_identical(serial.m, jobs8.m));
}

// Chunk sizes taken in turn over [0, slots): whole blocks, ranges that
// end in an overlapping block, ranges shorter than a block, and a last
// chunk of whatever is left (the whole range, for a layout of fewer than
// 64 slots).
constexpr std::size_t kMixedChunks[] = {64, 13, 8, 5, 3, 1};

// The inputs of an epilogue check, slot-indexed: a base state and three
// earlier ks with magnitudes like a solve's.
struct StageInputs {
  kernels::SoaVec base, k1, k2, k3;
};

StageInputs stage_inputs(std::size_t n) {
  StageInputs in;
  for (kernels::SoaVec* v : {&in.base, &in.k1, &in.k2, &in.k3}) {
    v->assign_zero(n);
  }
  for (std::size_t s = 0; s < n; ++s) {
    const double a = 0.37 * static_cast<double>(s);
    in.base.x[s] = 0.2 * std::sin(a);
    in.base.y[s] = 0.2 * std::cos(a);
    in.base.z[s] = 0.97;
    kernels::SoaVec* const ks[] = {&in.k1, &in.k2, &in.k3};
    for (int j = 0; j < 3; ++j) {
      const double b = a * (1.0 + 0.5 * j);
      ks[j]->x[s] = 3.1e10 * std::sin(b);
      ks[j]->y[s] = -2.7e10 * std::cos(1.3 * b);
      ks[j]->z[s] = 4.0e8 * std::sin(0.7 * b);
    }
  }
  return in;
}

// The two epilogue shapes under test: an axpy (the fresh k alone) and
// RK4's final update (three earlier ks, then the fresh one). Its
// combine_range twin takes the fresh dm/dt as its last k.
constexpr double kStageH = 2e-13;

kernels::Epilogue epilogue(int ks, kernels::SoaVec& out,
                           const StageInputs& in) {
  if (ks == 1) return kernels::stage(out, in.base, kStageH, {1.0}, {});
  return kernels::stage(out, in.base, kStageH / 6.0, {1.0, 2.0, 2.0, 1.0},
                        {&in.k1, &in.k2, &in.k3});
}

void combine_twin(int ks, kernels::SoaVec& out, const StageInputs& in,
                  const kernels::SoaVec& dmdt) {
  const std::size_t n = dmdt.size();
  out.assign_zero(n);
  if (ks == 1) {
    const double c[1] = {1.0};
    const kernels::SoaVec* const k[1] = {&dmdt};
    kernels::combine_range(out, in.base, kStageH, c, k, 0, n);
  } else {
    const double c[4] = {1.0, 2.0, 2.0, 1.0};
    const kernels::SoaVec* const k[4] = {&in.k1, &in.k2, &in.k3, &dmdt};
    kernels::combine_range(out, in.base, kStageH / 6.0, c, k, 0, n);
  }
}

struct SweepOut {
  VectorField dmdt, out;  // out: the epilogue's, when it ran
};

// One fused evaluation of initial_m at time t through `variant`, over
// [0, slots) split into chunks of the given sizes in turn, with the
// `ks`-shape epilogue over `in` when ks > 0. Both outputs start as NaN,
// so a slot no block writes cannot match. Returned as fields over the
// grid, vacuum +0.0.
SweepOut eval_variant(const kernels::SweepVariant& variant, const System& sys,
                      const kernels::KernelPlan& plan, double t,
                      std::span<const std::size_t> chunks = kMixedChunks,
                      int ks = 0, const StageInputs* in = nullptr) {
  const std::size_t n = plan.slots();
  kernels::SoaVec m, dmdt, out;
  kernels::gather(m, initial_m(sys), sys.active_cells());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (kernels::SoaVec* v : {&dmdt, &out}) {
    v->x.assign(n, nan);
    v->y.assign(n, nan);
    v->z.assign(n, nan);
  }
  std::vector<kernels::EvalOp> ops;
  kernels::resolve_ops(plan, t, ops);
  const kernels::Epilogue epi =
      ks > 0 ? epilogue(ks, out, *in) : kernels::Epilogue{};
  const kernels::FusedSweep sweep =
      kernels::make_sweep(plan, m, ops, dmdt, epi);
  for (std::size_t b = 0, c = 0; b < n; ++c) {
    const std::size_t e = std::min(n, b + chunks[c % chunks.size()]);
    variant.fused(sweep, b, e);
    b = e;
  }
  SweepOut r{VectorField(sys.grid()), VectorField(sys.grid())};
  kernels::scatter(dmdt, sys.active_cells(), r.dmdt);
  if (ks > 0) kernels::scatter(out, sys.active_cells(), r.out);
  return r;
}

TEST(KernelBitExact, EveryLaneWidthMatchesSse2AndReference) {
  const auto variants = kernels::sweep_variants();
  ASSERT_FALSE(variants.empty());
  ASSERT_STREQ(variants[0].name, "sse2");
  std::vector<Layout> all = layouts();
  all.push_back(tiny_layout());
  ASSERT_LT(tiny_layout().mask.count(), 8u);
  const double t = 7.3e-12;  // the antenna drives: env 1, sin != 0
  for (const auto& variant : variants) {
    if (!variant.supported()) {
      std::cout << "[  SKIP    ] " << variant.name
                << " lanes: this CPU does not run them\n";
      continue;
    }
    for (const Layout& layout : all) {
      for (const bool exchange : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << variant.name << " " << layout.name << " exchange "
                     << exchange);
        const System sys(layout.grid, Material::fecob(), layout.mask);
        auto terms = make_terms(layout.grid, exchange);
        const auto plan = kernels::build_plan(sys, terms);
        ASSERT_NE(plan, nullptr);
        VectorField ref(layout.grid), h(layout.grid);
        effective_field(sys, terms, initial_m(sys), t, h);
        llg_rhs(sys, initial_m(sys), h, ref);
        const SweepOut sse2 = eval_variant(variants[0], sys, *plan, t);
        const SweepOut lanes = eval_variant(variant, sys, *plan, t);
        EXPECT_TRUE(bytes_identical(sse2.dmdt, lanes.dmdt));
        EXPECT_TRUE(bytes_identical(ref, lanes.dmdt));

        // The epilogue, in both shapes: the same bytes as the SSE2
        // variant and as combine_range over the reference dm/dt, and the
        // same bytes whether the range runs as one chunk (one overlapping
        // tail) or in mixed chunks (a tail per chunk).
        const std::size_t n = plan->slots();
        const StageInputs in = stage_inputs(n);
        kernels::SoaVec ref_dmdt;
        kernels::gather(ref_dmdt, ref, sys.active_cells());
        const std::size_t whole[] = {n};
        for (const int ks : {1, 4}) {
          SCOPED_TRACE(::testing::Message() << ks << "-k epilogue");
          kernels::SoaVec twin;
          combine_twin(ks, twin, in, ref_dmdt);
          VectorField expected(layout.grid);
          kernels::scatter(twin, sys.active_cells(), expected);
          const SweepOut mixed =
              eval_variant(variant, sys, *plan, t, kMixedChunks, ks, &in);
          const SweepOut one =
              eval_variant(variant, sys, *plan, t, whole, ks, &in);
          const SweepOut base =
              eval_variant(variants[0], sys, *plan, t, kMixedChunks, ks, &in);
          EXPECT_TRUE(bytes_identical(ref, mixed.dmdt));
          EXPECT_TRUE(bytes_identical(expected, mixed.out));
          EXPECT_TRUE(bytes_identical(base.out, mixed.out));
          EXPECT_TRUE(bytes_identical(one.out, mixed.out));
        }
      }
    }
  }
}

TEST(KernelDeterminism, OvfOutputIsByteIdentical) {
  const auto ref = run_steps(StepperKind::kRk4, 1, 1, 10, 2e-13);
  const auto fused = run_steps(StepperKind::kRk4, 0, 4, 10, 2e-13);
  const std::string dir = ::testing::TempDir();
  const std::string pa = dir + "kernels_ref.ovf";
  const std::string pb = dir + "kernels_fused.ovf";
  io::write_ovf(pa, ref.m, "t");
  io::write_ovf(pb, fused.m, "t");
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string a = slurp(pa);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(pb));
}

// --- AntennaField fast-path regression ---------------------------------

TEST(AntennaFastPath, MatchesFullGridSweep) {
  const Grid g = make_grid();
  const System sys(g, Material::fecob(), triangle_mask(g));
  const Mask region = antenna_region(g);
  const double amplitude = 5.0e3, frequency = 2.6e9, phase = 0.3;
  AntennaField antenna(region, amplitude, Vec3{1, 0, 0}, frequency, phase);

  const VectorField m = initial_m(sys);
  for (const double t : {0.0, 7.3e-12, 1.9e-10}) {
    VectorField fast(g);
    // Seed the accumulator with a nonzero pattern so "+= drive" starts from
    // the same bytes a real term stack would.
    for (std::size_t i = 0; i < fast.size(); ++i) {
      fast[i] = Vec3{0.5 * static_cast<double>(i % 7), -1.25, 3.0};
    }
    VectorField full = fast;
    antenna.accumulate(sys, m, t, fast);

    // The pre-fast-path reference semantics: scan the whole grid, drive
    // region ∧ mask cells.
    const double env = 1.0;  // continuous envelope
    const Vec3 drive =
        Vec3{1, 0, 0} * (amplitude * env *
                         std::sin(2.0 * swsim::math::kPi * frequency * t +
                                  phase));
    const auto& mask = sys.mask();
    for (std::size_t i = 0; i < full.size(); ++i) {
      if (region[i] && mask[i]) full[i] += drive;
    }
    EXPECT_TRUE(bytes_identical(fast, full)) << "at t = " << t;
  }
}

// --- plan structure ------------------------------------------------------

TEST(KernelPlan, RejectsTermsItCannotLower) {
  const Grid g = make_grid();
  const System sys(g, Material::fecob(), triangle_mask(g));
  {
    std::vector<std::unique_ptr<FieldTerm>> terms;
    terms.push_back(std::make_unique<ExchangeField>());
    terms.push_back(std::make_unique<ThermalField>(300.0));
    EXPECT_EQ(kernels::build_plan(sys, terms), nullptr);
  }
  {
    std::vector<std::unique_ptr<FieldTerm>> terms;
    terms.push_back(std::make_unique<NewellDemagField>(sys));
    EXPECT_EQ(kernels::build_plan(sys, terms), nullptr);
  }
  {
    // Every block runs every antenna op through its own gate, so any
    // number of antennas lowers.
    std::vector<std::unique_ptr<FieldTerm>> terms;
    terms.push_back(std::make_unique<ExchangeField>());
    for (int a = 0; a < 9; ++a) {
      terms.push_back(std::make_unique<AntennaField>(
          antenna_region(g), 5.0e3, Vec3{1, 0, 0}, 2.6e9, 0.3));
    }
    EXPECT_NE(kernels::build_plan(sys, terms), nullptr);
  }
}

// Flat index of cell xyz's neighbour k (-x,+x,-y,+y,-z,+z), or -1 when
// it lies outside the grid.
std::ptrdiff_t flat_neighbour(const Grid& g, std::size_t i, int k) {
  const auto c = g.unindex(i);
  std::ptrdiff_t x = static_cast<std::ptrdiff_t>(c.x);
  std::ptrdiff_t y = static_cast<std::ptrdiff_t>(c.y);
  std::ptrdiff_t z = static_cast<std::ptrdiff_t>(c.z);
  const std::ptrdiff_t d = k % 2 == 0 ? -1 : 1;
  (k < 2 ? x : k < 4 ? y : z) += d;
  if (x < 0 || y < 0 || z < 0 || x >= static_cast<std::ptrdiff_t>(g.nx()) ||
      y >= static_cast<std::ptrdiff_t>(g.ny()) ||
      z >= static_cast<std::ptrdiff_t>(g.nz())) {
    return -1;
  }
  return static_cast<std::ptrdiff_t>(g.index(static_cast<std::size_t>(x),
                                             static_cast<std::size_t>(y),
                                             static_cast<std::size_t>(z)));
}

void expect_neighbour_table(const Layout& layout, bool exchange) {
  SCOPED_TRACE(layout.name);
  SCOPED_TRACE(exchange ? "exchange" : "no exchange");
  const Grid& g = layout.grid;
  const System sys(g, Material::fecob(), layout.mask);
  auto terms = make_terms(g, exchange);
  const auto plan = kernels::build_plan(sys, terms);
  ASSERT_NE(plan, nullptr);

  // The slot order is the System's active-cell list: the masked cells,
  // ascending.
  const auto& mask = sys.mask();
  const auto& active = sys.active_cells();
  ASSERT_EQ(plan->active.get(), &active);
  std::vector<std::uint32_t> masked;
  for (std::size_t i = 0; i < g.cell_count(); ++i) {
    if (mask[i]) masked.push_back(static_cast<std::uint32_t>(i));
  }
  ASSERT_EQ(active, masked);
  EXPECT_EQ(plan->slots(), sys.magnetic_cell_count());

  // Six entries per slot, neighbour-major. Each is a slot (the hardware
  // gathers read it unchecked), and it is the slot of the cell's flat
  // neighbour, or the slot itself where that neighbour is vacuum or
  // outside the grid, or where the set has no exchange.
  const std::size_t n = plan->slots();
  ASSERT_EQ(plan->nb.size(), 6 * n);
  std::size_t absent = 0, present = 0;
  for (std::size_t s = 0; s < n; ++s) {
    for (int k = 0; k < 6; ++k) {
      const std::uint32_t entry = plan->nb[static_cast<std::size_t>(k) * n + s];
      ASSERT_LT(entry, n) << "slot " << s << " neighbour " << k;
      const std::ptrdiff_t j = flat_neighbour(g, active[s], k);
      if (!exchange || j < 0 || !mask[static_cast<std::size_t>(j)]) {
        EXPECT_EQ(entry, s) << "slot " << s << " neighbour " << k;
        ++absent;
      } else {
        EXPECT_EQ(static_cast<std::ptrdiff_t>(active[entry]), j)
            << "slot " << s << " neighbour " << k;
        ++present;
      }
    }
  }
  EXPECT_GT(absent, 0u);
  EXPECT_EQ(present > 0, exchange);
}

TEST(KernelPlan, NeighbourTableMapsEverySlot) {
  for (const Layout& layout : layouts()) {
    for (const bool exchange : {true, false}) {
      expect_neighbour_table(layout, exchange);
    }
  }
  expect_neighbour_table(tiny_layout(), true);
}

TEST(KernelPlan, HoleRowNeighboursSkipTheHole) {
  // The 2x1 hole at x = 20..21 of row y = 9: its ±x neighbours read
  // themselves, and the slot distance to the unbroken row below is two
  // cells shorter right of the hole than left of it.
  const Layout layout = holes_layout();
  const Grid& g = layout.grid;
  const System sys(g, Material::fecob(), layout.mask);
  auto terms = make_terms(g);
  const auto plan = kernels::build_plan(sys, terms);
  ASSERT_NE(plan, nullptr);
  const auto& active = sys.active_cells();
  const std::size_t n = plan->slots();
  const auto slot_of = [&](std::size_t x, std::size_t y) {
    const auto it = std::lower_bound(active.begin(), active.end(),
                                     static_cast<std::uint32_t>(g.index(x, y, 0)));
    EXPECT_TRUE(it != active.end() && *it == g.index(x, y, 0));
    return static_cast<std::uint32_t>(it - active.begin());
  };
  const auto entry = [&](std::uint32_t s, int k) {
    return plan->nb[static_cast<std::size_t>(k) * n + s];
  };
  const std::uint32_t left = slot_of(19, 9), right = slot_of(22, 9);
  EXPECT_EQ(entry(left, 1), left);    // +x is the hole
  EXPECT_EQ(entry(right, 0), right);  // -x is the hole
  EXPECT_EQ(entry(left, 2), slot_of(19, 8));
  EXPECT_EQ(entry(right, 2), slot_of(22, 8));
  EXPECT_EQ((left - entry(left, 2)) - (right - entry(right, 2)), 2u);
}

void expect_antenna_gate(const Layout& layout) {
  SCOPED_TRACE(layout.name);
  const Grid& g = layout.grid;
  const System sys(g, Material::fecob(), layout.mask);
  auto terms = make_terms(g);
  const auto plan = kernels::build_plan(sys, terms);
  ASSERT_NE(plan, nullptr);

  const kernels::TermOp* antenna = nullptr;
  for (const auto& op : plan->ops) {
    if (op.kind == kernels::OpKind::kAntenna) antenna = &op;
  }
  ASSERT_NE(antenna, nullptr);
  ASSERT_EQ(antenna->gate.size(), plan->slots());

  const Mask region = antenna_region(g);
  const auto& mask = sys.mask();
  const auto& active = sys.active_cells();
  std::vector<std::uint32_t> driven;
  for (std::size_t s = 0; s < plan->slots(); ++s) {
    const std::size_t i = active[s];
    const bool on = region[i] && mask[i];
    EXPECT_EQ(antenna->gate[s], on ? 1.0 : 0.0) << "slot " << s;
    if (on) driven.push_back(static_cast<std::uint32_t>(s));
  }
  EXPECT_EQ(antenna->cells, driven);
  // Some slots are driven and some are not, so the bit-exact tests cover
  // both sides of the gate's select.
  EXPECT_GT(driven.size(), 0u);
  EXPECT_LT(driven.size(), plan->slots());
}

TEST(KernelPlan, AntennaGateMatchesRegionAndMask) {
  for (const Layout& layout : layouts()) expect_antenna_gate(layout);
}

}  // namespace
}  // namespace swsim::mag
