// Bit-exactness contract of the fused SoA kernel path.
//
// The kernel layer (src/mag/kernels/) promises byte-identical output to
// the scalar reference steppers for every stepper kind, every term set it
// lowers, and ANY intra-solve job count. These tests hold it to that with
// memcmp over the raw Vec3 bytes — no tolerances anywhere — on masked
// geometries that exercise interior SIMD runs, scalar edge cells,
// absent-neighbour self-indices, and the antenna gate at once: a
// triangle, a box with interior holes (rows split mid-way, so runs of one
// row sit at different ±y slot offsets), and two- and three-layer grids
// (the ±z neighbours, in the edge table and in the run offsets, and runs
// on the grid's border rows and layers). One test arms the metrics
// registry around a solve: armed telemetry must not change a byte either.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "io/ovf.h"
#include "mag/anisotropy_field.h"
#include "mag/demag_field.h"
#include "mag/exchange_field.h"
#include "mag/kernels/plan.h"
#include "mag/kernels/runtime.h"
#include "mag/llg.h"
#include "mag/material.h"
#include "mag/simulation.h"
#include "mag/system.h"
#include "mag/thermal_field.h"
#include "mag/zeeman_field.h"
#include "math/constants.h"
#include "math/field.h"
#include "obs/metrics.h"
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

// Right-triangle footprint: row y keeps x in [0, nx - y). Produces long
// interior runs low in the triangle, short (< kMinRun) rows near the apex
// that land whole on the edge path, and a diagonal boundary whose cells
// have absent +x/+y neighbours.
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
// It drives edge slots (the x = 0 column has no -x neighbour) as well as
// runs; runs that start right of it (past a hole) skip the op whole.
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
// its row in two runs whose -y/+y neighbour rows are unbroken there, so
// the two runs get different ±y slot offsets; a 3x3 hole and a one-cell
// hole cut the rows around them.
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

// Every kernel-lowerable term at once. Without exchange no op reaches
// off-cell, so every active cell of a long enough row joins a run, the
// grid's border rows included.
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
  // The injected NaN lands on the AoS state after the kernel path stores
  // back, so the watchdog scan must fire on the identical step index in
  // both modes.
  EXPECT_EQ(steps_until_trip(1), steps_until_trip(0));
}

TEST(KernelBitExact, SlotOffsetLayoutsMatchReferenceAtEveryJobCount) {
  // Holes split rows into runs with distinct ±y slot offsets; the layered
  // grids put ±z neighbours in the edge table and in the run offsets. Runs
  // cover the grid's border rows and layers, whose out-of-grid ±y/±z
  // neighbours take offset 0 (with exchange; without it no op reads a
  // neighbour, and runs cover every long enough row).
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
    // A run's antenna coverage holds one bit per antenna: eight lower,
    // a ninth sends the set to the reference path.
    std::vector<std::unique_ptr<FieldTerm>> terms;
    terms.push_back(std::make_unique<ExchangeField>());
    const auto add_antenna = [&] {
      terms.push_back(std::make_unique<AntennaField>(
          antenna_region(g), 5.0e3, Vec3{1, 0, 0}, 2.6e9, 0.3));
    };
    for (int a = 0; a < 8; ++a) add_antenna();
    EXPECT_NE(kernels::build_plan(sys, terms), nullptr);
    add_antenna();
    EXPECT_EQ(kernels::build_plan(sys, terms), nullptr);
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

void expect_partition(const Layout& layout) {
  SCOPED_TRACE(layout.name);
  const Grid& g = layout.grid;
  const System sys(g, Material::fecob(), layout.mask);
  auto terms = make_terms(g);
  const auto plan = kernels::build_plan(sys, terms);
  ASSERT_NE(plan, nullptr);
  ASSERT_GT(plan->edge_slots.size(), 0u);
  ASSERT_GT(plan->runs.size(), 0u);

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
  EXPECT_EQ(plan->interior_total + plan->edge_slots.size(), plan->slots());

  // Every interior cell is active with in-grid, active ±x neighbours, its
  // six neighbour slots (±1, then the run's ±y/±z offsets) are exactly its
  // in-grid neighbours, which are active, an out-of-grid ±y/±z neighbour
  // has offset 0, and no slot appears twice.
  const bool used[3] = {g.nx() > 1, g.ny() > 1, g.nz() > 1};
  std::vector<int> seen(plan->slots(), 0);
  std::uint64_t counted = 0;
  for (std::size_t r = 0; r < plan->runs.size(); ++r) {
    const auto& run = plan->runs[r];
    EXPECT_EQ(plan->run_prefix[r], counted);
    const std::ptrdiff_t nbo[6] = {-1, 1, run.off[0], run.off[1],
                                   run.off[2], run.off[3]};
    for (std::uint32_t s = run.b; s < run.e; ++s) {
      ++seen[s];
      const std::size_t i = active[s];
      EXPECT_TRUE(mask[i]);
      for (int k = 0; k < 6; ++k) {
        if (!used[k / 2]) continue;
        const std::ptrdiff_t j = flat_neighbour(g, i, k);
        if (j < 0) {
          ASSERT_GE(k, 2) << "slot " << s << " has no x neighbour " << k;
          EXPECT_EQ(nbo[k], 0) << "slot " << s << " neighbour " << k;
          continue;
        }
        EXPECT_TRUE(mask[static_cast<std::size_t>(j)])
            << "slot " << s << " neighbour " << k;
        const std::ptrdiff_t ns = static_cast<std::ptrdiff_t>(s) + nbo[k];
        ASSERT_GE(ns, 0);
        ASSERT_LT(ns, static_cast<std::ptrdiff_t>(plan->slots()));
        EXPECT_EQ(static_cast<std::ptrdiff_t>(active[ns]), j)
            << "slot " << s << " neighbour " << k;
      }
    }
    counted += run.e - run.b;
  }
  EXPECT_EQ(counted, plan->interior_total);
  for (const std::uint32_t s : plan->edge_slots) ++seen[s];
  for (std::size_t s = 0; s < plan->slots(); ++s) {
    EXPECT_EQ(seen[s], 1) << "slot " << s;
  }

  // The edge table: six offsets per edge slot, each to the slot of the
  // flat neighbour, or 0 where that neighbour is outside the grid or
  // vacuum.
  ASSERT_EQ(plan->edge_off.size(), 6 * plan->edge_slots.size());
  for (std::size_t e = 0; e < plan->edge_slots.size(); ++e) {
    const std::uint32_t s = plan->edge_slots[e];
    for (int k = 0; k < 6; ++k) {
      const std::ptrdiff_t j = flat_neighbour(g, active[s], k);
      const std::ptrdiff_t off = plan->edge_off[6 * e + k];
      if (j < 0 || !mask[static_cast<std::size_t>(j)]) {
        EXPECT_EQ(off, 0) << "slot " << s << " neighbour " << k;
      } else {
        ASSERT_NE(off, 0) << "slot " << s << " neighbour " << k;
        EXPECT_EQ(static_cast<std::ptrdiff_t>(active[s + off]), j)
            << "slot " << s << " neighbour " << k;
      }
    }
  }
}

TEST(KernelPlan, InteriorAndEdgePartitionTheActiveSet) {
  for (const Layout& layout : layouts()) expect_partition(layout);
}

TEST(KernelPlan, HoleRowRunsHaveDistinctYOffsets) {
  // The 2x1 hole at y = 9 splits that row into runs whose ±y offsets
  // differ by the hole's two cells: the slots between the right run and
  // its -y neighbours skip the hole, and so do those between the left
  // run and its +y neighbours.
  const Layout layout = holes_layout();
  const System sys(layout.grid, Material::fecob(), layout.mask);
  auto terms = make_terms(layout.grid);
  const auto plan = kernels::build_plan(sys, terms);
  ASSERT_NE(plan, nullptr);
  std::vector<const kernels::KernelPlan::Run*> row;
  for (const auto& run : plan->runs) {
    if (layout.grid.unindex(sys.active_cells()[run.b]).y == 9) {
      row.push_back(&run);
    }
  }
  ASSERT_GE(row.size(), 2u);
  EXPECT_EQ(row.front()->off[0] - row.back()->off[0], -2);
  EXPECT_EQ(row.front()->off[1] - row.back()->off[1], -2);
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
  bool runs_driven = false;
  for (const auto& run : plan->runs) {
    bool any = false;
    for (std::uint32_t s = run.b; s < run.e && !any; ++s) {
      any = antenna->gate[s] != 0.0;
    }
    EXPECT_EQ((run.antenna & 1u) != 0, any);
    runs_driven = runs_driven || any;
  }
  // The antenna drives cells of both kinds, so the bit-exact tests cover
  // the drive in runs and in edge slots.
  bool edge_driven = false;
  for (const std::uint32_t s : plan->edge_slots) {
    edge_driven = edge_driven || antenna->gate[s] != 0.0;
  }
  EXPECT_TRUE(runs_driven);
  EXPECT_TRUE(edge_driven);
}

TEST(KernelPlan, AntennaGateMatchesRegionAndMask) {
  for (const Layout& layout : layouts()) expect_antenna_gate(layout);
}

}  // namespace
}  // namespace swsim::mag
