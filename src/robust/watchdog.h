// Numerical health watchdogs for the LLG solve path.
//
// The paper's readouts sit close to decision boundaries (MAJ3 phase
// distance, XOR threshold at 0.5), so a solve that has gone numerically
// bad must be *detected*, not read out. Three checks, all cheap relative
// to a field evaluation and run at a configurable step cadence:
//
//   1. NaN/Inf scan over the magnetization (any poisoned component).
//   2. |m| norm drift, checked BEFORE the stepper's renormalization —
//      after renormalize |m| == 1 by construction, so drift is only
//      observable on the raw integrator output. Large drift means the
//      step size is too big for the local dynamics.
//   3. Energy divergence: for the conservative terms, total energy must
//      not grow by orders of magnitude during a drive; if it does the
//      integration has blown up even if no cell is NaN yet.
//
// A violation is reported as StatusCode::kNumericalDivergence; the
// recovery policy (step-halving re-solve with a bounded retry budget)
// lives in mag::Simulation::run_guarded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/field.h"
#include "robust/status.h"

namespace swsim::robust {

struct WatchdogConfig {
  // Steps between health scans; 0 disables the in-stepper checks.
  std::size_t cadence = 32;
  // Max tolerated pre-renormalization | |m| - 1 | per cell. RK4 on a sane
  // step drifts by ~1e-6/step; 0.25 only trips on real blowups.
  double norm_drift_tol = 0.25;
  // Total energy may grow this many times over the reference magnitude
  // before the run is declared divergent. The reference is the running
  // max |E| over the first energy_warmup_checks checks, so a run that
  // starts at ~zero energy (uniform state, drive not yet ramped) arms
  // against the first real drive energies, not against numerical noise.
  double energy_growth_factor = 1e3;
  // Checks (at `cadence` steps each) that only ratchet the reference
  // before the growth bound is enforced. Must be >= 1.
  std::size_t energy_warmup_checks = 4;
  // Step-halving re-solves run_guarded may attempt after a divergence.
  std::size_t max_step_halvings = 3;
};

// The per-cell health check: ok when every component of m is finite and
// | |m| - 1 | <= norm_drift_tol, otherwise kNumericalDivergence naming
// flat cell `cell`. `norm_drift_tol <= 0` skips the drift check (a
// renormalized field is checked for NaN/Inf only). Every scan of the
// solver state, on the AoS field or on the kernel path's slots, reports
// through this one check, so both word a trip the same way.
Status check_cell(const swsim::math::Vec3& m, std::size_t cell,
                  double norm_drift_tol);

// check_cell over the listed cells (a System's ascending active-cell
// list) in order; the first failure is returned.
Status scan_magnetization(const swsim::math::VectorField& m,
                          const std::vector<std::uint32_t>& cells,
                          double norm_drift_tol);

// Flags runaway growth of the total energy. reset() between solves. The
// first `warmup_checks` calls only ratchet the reference to the running
// max |E|; the growth bound is enforced afterwards — and only once the
// reference is physically meaningful (>= kNegligibleEnergy), so a drive
// that ramps up late keeps ratcheting instead of tripping on the jump
// from numerical noise to its first real energy. Non-finite energies are
// flagged on every call, warmup included.
class EnergyWatchdog {
 public:
  // Energies below this (in J) carry no physical signal for the devices
  // simulated here (drive energies are ~1e-18 J): a reference this small
  // keeps ratcheting rather than serving as a growth baseline.
  static constexpr double kNegligibleEnergy = 1e-24;

  void reset();
  Status check(double energy, double growth_factor,
               std::size_t warmup_checks = 1);

 private:
  std::size_t checks_ = 0;  // calls since reset()
  double reference_ = 0.0;  // running max |E| over the warmup window
};

}  // namespace swsim::robust
