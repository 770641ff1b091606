// The micromagnetic simulation driver: owns the system, the effective-field
// terms, the stepper, and the probes, and exposes the run/relax loop.
//
// Typical use (mirrors a MuMax3 script):
//   System sys(grid, Material::fecob(), mask);
//   Simulation sim(sys);
//   sim.add_term(std::make_unique<ExchangeField>());
//   sim.add_term(std::make_unique<UniaxialAnisotropyField>());
//   sim.add_term(std::make_unique<ThinFilmDemagField>());
//   sim.add_term(std::make_unique<AntennaField>(...));
//   auto& probe = sim.add_probe("O1", detector_mask, sample_dt);
//   sim.set_magnetization(sys.uniform_magnetization({0, 0, 1}));
//   sim.run(duration);
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mag/llg.h"
#include "mag/probe.h"
#include "obs/physics.h"
#include "robust/cancel.h"
#include "robust/status.h"
#include "robust/watchdog.h"

namespace swsim::mag {

class Simulation {
 public:
  explicit Simulation(System system);

  const System& system() const { return system_; }
  double time() const { return time_; }
  const VectorField& magnetization() const { return m_; }
  void set_magnetization(const VectorField& m);

  // Adds an effective-field term (order is irrelevant: terms sum linearly).
  FieldTerm& add_term(std::unique_ptr<FieldTerm> term);
  const std::vector<std::unique_ptr<FieldTerm>>& terms() const {
    return terms_;
  }

  // Installs the standard conservative terms for the paper's PMA film:
  // exchange + uniaxial(z) anisotropy + thin-film demag.
  void add_standard_terms();

  RegionProbe& add_probe(const std::string& name,
                         const swsim::math::Mask& region, double sample_dt);
  RegionProbe& probe(const std::string& name);

  // Configures the time stepper (default: RK4 with dt = 50 fs).
  void set_stepper(StepperKind kind, double dt, double tolerance = 1e-5);
  const StepperStats& stepper_stats() const;

  // Numerical health policy shared by run() / run_guarded(): the stepper
  // scans the state at `config.cadence`, run() additionally checks energy
  // divergence and polls the cancel token at the same cadence.
  void set_watchdog(const robust::WatchdogConfig& config);
  const robust::WatchdogConfig& watchdog() const { return watchdog_; }

  // Installs a cooperative cancellation token: run()/run_guarded() poll it
  // every step and abort with StatusCode::kCancelled when it fires (the
  // engine's per-job timeout path). Without one, the solve polls a token
  // of its own, which still reports a process-wide cancel request.
  void set_cancel_token(const robust::CancelToken& token);

  // Arms convergence tracking: every probe with an armed demodulator gets a
  // ConvergenceTracker fed on each completed envelope window. With
  // early_stop, run() terminates the solve once every probe's tracker has
  // decided (probes without a demodulator never decide, so early stop only
  // fires when all ports are demodulated). The solve then reports the
  // integration steps it skipped via early_stop_saved_steps().
  void set_convergence(const obs::ConvergencePolicy& policy,
                       bool early_stop = false);
  // True when convergence is armed, at least one probe exists, and every
  // probe's tracker has decided.
  bool all_converged() const;
  std::uint64_t early_stop_saved_steps() const {
    return early_stop_saved_steps_;
  }

  // Job label attached to streamed probe frames (obs::ProbeHub), e.g.
  // "micromag MAJ3 101". Streaming stays inert while nothing subscribes.
  void set_telemetry_label(std::string label);

  // Integrates for `duration` seconds of simulated time. Throws
  // robust::SolveError on watchdog violation or cancellation.
  void run(double duration);

  // Fault-tolerant run: on kNumericalDivergence the state (magnetization,
  // clock, probe records) is rewound to the call point, the step size is
  // halved, and the interval is re-solved — up to
  // watchdog().max_step_halvings times. Returns kOk on success (possibly
  // after retries), otherwise the final failure Status; cancellation is
  // returned immediately, never retried. Does not throw on classified
  // failures.
  robust::Status run_guarded(double duration);

  // Energy-relaxes the state by integrating with damping temporarily raised
  // to `relax_alpha` until the max torque |m x H| falls below `torque_tol`
  // (in A/m) or `max_time` elapses. Returns the final max torque.
  double relax(double max_time, double torque_tol = 1.0,
               double relax_alpha = 0.5);

  // Total energy (sum over terms that define one) [J]. When exchange_j is
  // non-null it receives the exchange term's contribution (the magnon-band
  // carrier tracked by the telemetry energy series).
  double total_energy(double* exchange_j = nullptr) const;

  // Max |m x H_eff| over magnetic cells — the convergence measure.
  double max_torque();

 private:
  // Reacts to probe i completing a demodulator window: registry stats,
  // gauges, convergence tracking, and the live frame stream.
  void on_window_completed(std::size_t i);
  // (Re)builds trackers_ to parallel probes_ when convergence is armed.
  void ensure_trackers();

  System system_;
  VectorField m_;
  std::vector<std::unique_ptr<FieldTerm>> terms_;
  std::vector<std::unique_ptr<RegionProbe>> probes_;
  std::unique_ptr<Stepper> stepper_;
  double time_ = 0.0;
  robust::WatchdogConfig watchdog_;
  robust::EnergyWatchdog energy_watchdog_;
  robust::CancelToken cancel_token_;
  std::optional<obs::ConvergencePolicy> convergence_;
  bool early_stop_ = false;
  std::vector<obs::ConvergenceTracker> trackers_;  // parallel to probes_
  std::string telemetry_label_;
  std::uint64_t early_stop_saved_steps_ = 0;
};

}  // namespace swsim::mag
