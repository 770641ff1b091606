// Landau-Lifshitz-Gilbert right-hand side and time steppers.
//
// The LLG equation in the (numerically convenient) Landau-Lifshitz form:
//   dm/dt = -gamma mu0 / (1 + alpha^2) * [ m x H + alpha m x (m x H) ]
// where m is the unit magnetization and H the effective field in A/m. This
// is algebraically identical to the Gilbert form quoted as Eq. (1) of the
// paper.
//
// Steppers:
//   Heun  — 2nd order, 2 field evaluations/step; the standard choice for
//           stochastic (finite-temperature) runs.
//   RK4   — 4th order, 4 evaluations/step; the workhorse for deterministic
//           wave-propagation runs.
//   RKF45 — Runge-Kutta-Fehlberg embedded 4(5) pair with adaptive step-size
//           control on the max-norm of dm.
//
// After every accepted step the magnetization is renormalized cell-wise
// over the System's active-cell list (vacuum cells stay zero; the kernel
// path renormalizes its slots), which keeps |m| = 1 against integration
// drift.
#pragma once

#include <memory>
#include <vector>

#include "mag/field_term.h"
#include "mag/system.h"
#include "robust/watchdog.h"

namespace swsim::mag {

namespace kernels {
class SolveContext;
struct SoaVec;
struct Epilogue;
}

// Computes H_eff (sum of all terms) for state m at time t into h (h is
// zeroed first).
void effective_field(const System& sys,
                     const std::vector<std::unique_ptr<FieldTerm>>& terms,
                     const VectorField& m, double t, VectorField& h);

// Computes the LLG right-hand side dm/dt into dmdt given m and H_eff.
void llg_rhs(const System& sys, const VectorField& m, const VectorField& h,
             VectorField& dmdt);

// Renormalizes every magnetic cell of m to unit length.
void renormalize(const System& sys, VectorField& m);

enum class StepperKind { kHeun, kRk4, kRkf45 };

struct StepperStats {
  std::size_t steps_taken = 0;
  std::size_t steps_rejected = 0;  // RKF45 only
  std::size_t field_evaluations = 0;
  double last_dt = 0.0;
};

// Owns the integration state machinery; the Simulation driver calls step().
class Stepper {
 public:
  // dt is the fixed step for Heun/RK4 and the initial step for RKF45.
  // tolerance is the RKF45 per-step max-norm error target (ignored by the
  // fixed-step methods).
  Stepper(StepperKind kind, double dt, double tolerance = 1e-5);
  ~Stepper();
  Stepper(Stepper&&) noexcept;
  Stepper& operator=(Stepper&&) noexcept;

  // Advances m from time t by one step; returns the step size actually taken
  // (RKF45 may shrink it). Notifies the terms via advance_step() so
  // stochastic terms redraw their noise.
  //
  // One step body serves every caller. Inside a Resident scope over m
  // (Simulation::run opens one for a whole run) the kernel path keeps the
  // state in slot order from step to step and m is stale until the scope
  // syncs or ends. Called on any other field (tests, relax), step() opens
  // a scope for this one step, so m is current when it returns, thrown
  // or not.
  //
  // Vacuum cells of m must hold +0.0 in every component (the System
  // invariant; Simulation::set_magnetization canonicalizes them). The
  // kernel path never writes vacuum cells, and the reference path adds an
  // exact +0.0 to them, which leaves +0.0 unchanged: both paths then
  // return the same bytes for the whole field. A -0.0 vacuum component
  // would come back +0.0 from the reference path and -0.0 from the
  // kernel path.
  //
  // After the stages comes the step tail, in this order on either path's
  // state (the kernel path's slots, or the AoS field): the fault-injection
  // poke, then at the watchdog cadence a scan of the raw
  // (pre-renormalization) state for NaN/Inf and |m| norm drift, then
  // renormalization. A violation throws robust::SolveError with
  // StatusCode::kNumericalDivergence instead of letting the poisoned state
  // propagate. Recovery policy lives in Simulation::run_guarded.
  double step(const System& sys,
              const std::vector<std::unique_ptr<FieldTerm>>& terms,
              VectorField& m, double t);

  // A residency scope over the AoS field m. From the first kernel-path
  // step on m until the scope ends, the state lives in the solve
  // context's slot buffers; m is written only by sync() and by the
  // destructor, which runs on a normal exit, an early stop or a throw.
  // The reference path steps m itself, so there both are no-ops. Opening
  // a scope while another is open stores that one's state into its field
  // first, and its steps reload it after this scope ends.
  class Resident {
   public:
    Resident(Stepper& stepper, VectorField& m);
    ~Resident();
    Resident(const Resident&) = delete;
    Resident& operator=(const Resident&) = delete;

    // Writes the current state into m, for a reader (a probe sample, the
    // energy check); the state stays resident.
    void sync();

   private:
    Stepper& stepper_;
    VectorField* outer_;
  };

  const StepperStats& stats() const { return stats_; }
  StepperKind kind() const { return kind_; }
  double dt() const { return dt_; }
  double tolerance() const { return tolerance_; }

  // Replaces the (initial) step size; throws std::invalid_argument unless
  // dt > 0. Used by the step-halving divergence recovery.
  void set_dt(double dt);
  // Configures the numerical health checks (cadence 0 disables them).
  void set_watchdog(const robust::WatchdogConfig& config) {
    watchdog_ = config;
  }
  const robust::WatchdogConfig& watchdog() const { return watchdog_; }

 private:
  double step_heun(const System& sys,
                   const std::vector<std::unique_ptr<FieldTerm>>& terms,
                   VectorField& m, double t);
  double step_rk4(const System& sys,
                  const std::vector<std::unique_ptr<FieldTerm>>& terms,
                  VectorField& m, double t);
  double step_rkf45(const System& sys,
                    const std::vector<std::unique_ptr<FieldTerm>>& terms,
                    VectorField& m, double t);

  void eval(const System& sys,
            const std::vector<std::unique_ptr<FieldTerm>>& terms,
            const VectorField& m, double t, VectorField& dmdt);

  // The step body, on the field of the open Resident scope.
  double advance(const System& sys,
                 const std::vector<std::unique_ptr<FieldTerm>>& terms,
                 VectorField& m, double t);

  // Fused SoA kernel path (see src/mag/kernels/): bit-identical to the
  // reference steppers above, entered whenever every term lowers to a
  // kernel op. Returns nullptr — reference path — otherwise, or when
  // SWSIM_KERNEL_REF forces the scalar oracle. A rebuild stores the old
  // context's resident state first.
  kernels::SolveContext* kernel_context(
      const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms);
  // Ends residency in the context: its state into the scope's field.
  void unload();
  void keval(kernels::SolveContext& c, const kernels::SoaVec& state, double t,
             kernels::SoaVec& dmdt, const kernels::Epilogue& epi);
  double kstep_heun(kernels::SolveContext& c, double t);
  double kstep_rk4(kernels::SolveContext& c, double t);
  double kstep_rkf45(kernels::SolveContext& c, double t);

  StepperKind kind_;
  double dt_;
  double tolerance_;
  StepperStats stats_;
  robust::WatchdogConfig watchdog_;
  VectorField h_;  // scratch field buffer reused across steps
  std::unique_ptr<kernels::SolveContext> kctx_;  // cached solve plan+buffers
  VectorField* resident_ = nullptr;  // the open Resident scope's field
  bool loaded_ = false;  // kctx_->m_ holds that field's current state
};

}  // namespace swsim::mag
