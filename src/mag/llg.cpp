#include "mag/llg.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "mag/kernels/context.h"
#include "mag/kernels/runtime.h"
#include "math/constants.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "robust/fault_injection.h"

namespace swsim::mag {

using swsim::math::kGamma;
using swsim::math::kMu0;

namespace fehlberg {
// The RKF45 tableau, shared by the reference stepper and the kernel-path
// stepper so both run bit-identical arithmetic.
constexpr double a2 = 1.0 / 4.0;
constexpr double a3 = 3.0 / 8.0, b31 = 3.0 / 32.0, b32 = 9.0 / 32.0;
constexpr double a4 = 12.0 / 13.0, b41 = 1932.0 / 2197.0,
                 b42 = -7200.0 / 2197.0, b43 = 7296.0 / 2197.0;
constexpr double a5 = 1.0, b51 = 439.0 / 216.0, b52 = -8.0,
                 b53 = 3680.0 / 513.0, b54 = -845.0 / 4104.0;
constexpr double a6 = 1.0 / 2.0, b61 = -8.0 / 27.0, b62 = 2.0,
                 b63 = -3544.0 / 2565.0, b64 = 1859.0 / 4104.0,
                 b65 = -11.0 / 40.0;
// 5th-order solution weights.
constexpr double c1 = 16.0 / 135.0, c3 = 6656.0 / 12825.0,
                 c4 = 28561.0 / 56430.0, c5 = -9.0 / 50.0, c6 = 2.0 / 55.0;
// Error weights (5th - 4th).
constexpr double e1 = 16.0 / 135.0 - 25.0 / 216.0;
constexpr double e3 = 6656.0 / 12825.0 - 1408.0 / 2565.0;
constexpr double e4 = 28561.0 / 56430.0 - 2197.0 / 4104.0;
constexpr double e5 = -9.0 / 50.0 + 1.0 / 5.0;
constexpr double e6 = 2.0 / 55.0;
}  // namespace fehlberg

void effective_field(const System& sys,
                     const std::vector<std::unique_ptr<FieldTerm>>& terms,
                     const VectorField& m, double t, VectorField& h) {
  h.fill(Vec3{});
  if (!obs::metrics_armed()) {
    for (const auto& term : terms) {
      term->accumulate(sys, m, t, h);
    }
    return;
  }
  // Armed path: attribute field-assembly time per term ("mag.term.<name>.us"
  // aggregates demag vs exchange vs antenna cost across the whole run).
  for (const auto& term : terms) {
    obs::ScopedTimerUs timer(term->time_us());
    term->accumulate(sys, m, t, h);
  }
}

void llg_rhs(const System& sys, const VectorField& m, const VectorField& h,
             VectorField& dmdt) {
  const auto& mask = sys.mask();
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!mask[i]) {
      dmdt[i] = Vec3{};
      continue;
    }
    const double alpha = sys.alpha_at(i);
    const double pref = -kGamma * kMu0 / (1.0 + alpha * alpha);
    const Vec3 mxh = cross(m[i], h[i]);
    dmdt[i] = pref * (mxh + alpha * cross(m[i], mxh));
  }
}

void renormalize(const System& sys, VectorField& m) {
  for (const std::uint32_t i : sys.active_cells()) {
    m[i] = swsim::math::normalized(m[i]);
  }
}

Stepper::Stepper(StepperKind kind, double dt, double tolerance)
    : kind_(kind), dt_(dt), tolerance_(tolerance) {
  if (!(dt > 0.0)) throw std::invalid_argument("Stepper: dt must be > 0");
  if (!(tolerance > 0.0)) {
    throw std::invalid_argument("Stepper: tolerance must be > 0");
  }
}

Stepper::~Stepper() = default;
Stepper::Stepper(Stepper&&) noexcept = default;
Stepper& Stepper::operator=(Stepper&&) noexcept = default;

void Stepper::set_dt(double dt) {
  if (!(dt > 0.0)) throw std::invalid_argument("Stepper: dt must be > 0");
  dt_ = dt;
}

void Stepper::eval(const System& sys,
                   const std::vector<std::unique_ptr<FieldTerm>>& terms,
                   const VectorField& m, double t, VectorField& dmdt) {
  if (h_.size() != m.size()) h_ = VectorField(sys.grid());
  {
    static obs::Counter& field_us =
        obs::MetricsRegistry::global().counter("mag.field_assembly.us");
    obs::ScopedTimerUs timer(field_us);
    effective_field(sys, terms, m, t, h_);
  }
  llg_rhs(sys, m, h_, dmdt);
  ++stats_.field_evaluations;
  static obs::Counter& evals =
      obs::MetricsRegistry::global().counter("mag.field_evals");
  evals.add();
}

kernels::SolveContext* Stepper::kernel_context(
    const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms) {
  if (kernels::reference_forced()) return nullptr;
  if (kctx_ && kctx_->matches(sys, terms)) return kctx_.get();
  unload();
  // A term set that refuses to lower (thermal noise, FFT demag) is rejected
  // in O(terms) inside create(), so retrying every step is cheap.
  const std::size_t stages = kind_ == StepperKind::kHeun  ? 2
                             : kind_ == StepperKind::kRk4 ? 4
                                                          : 6;
  kctx_ = kernels::SolveContext::create(sys, terms, stages);
  return kctx_.get();
}

void Stepper::unload() {
  if (loaded_) kctx_->store_m(*resident_);
  loaded_ = false;
}

Stepper::Resident::Resident(Stepper& stepper, VectorField& m)
    : stepper_(stepper), outer_(stepper.resident_) {
  stepper_.unload();
  stepper_.resident_ = &m;
}

Stepper::Resident::~Resident() {
  stepper_.unload();
  stepper_.resident_ = outer_;
}

void Stepper::Resident::sync() {
  if (stepper_.loaded_) stepper_.kctx_->store_m(*stepper_.resident_);
}

void Stepper::keval(kernels::SolveContext& c, const kernels::SoaVec& state,
                    double t, kernels::SoaVec& dmdt,
                    const kernels::Epilogue& epi) {
  {
    static obs::Counter& field_us =
        obs::MetricsRegistry::global().counter("mag.field_assembly.us");
    obs::ScopedTimerUs timer(field_us);
    c.eval(state, t, dmdt, epi);
  }
  ++stats_.field_evaluations;
  static obs::Counter& evals =
      obs::MetricsRegistry::global().counter("mag.field_evals");
  evals.add();
}

double Stepper::step(const System& sys,
                     const std::vector<std::unique_ptr<FieldTerm>>& terms,
                     VectorField& m, double t) {
  if (resident_ == &m) return advance(sys, terms, m, t);
  Resident one_step(*this, m);
  return advance(sys, terms, m, t);
}

double Stepper::advance(const System& sys,
                        const std::vector<std::unique_ptr<FieldTerm>>& terms,
                        VectorField& m, double t) {
  // Stochastic terms draw one noise realization per step, scaled by the
  // step size the integrator is about to take.
  for (const auto& term : terms) term->advance_step(dt_);

  // The fused SoA path gathers m into slot order once per residency; the
  // stage math and the step tail run on the context's slot buffers, and
  // vacuum cells of m are never written. The reference path steps m.
  kernels::SolveContext* ctx = kernel_context(sys, terms);
  if (!ctx) {
    unload();
  } else if (!loaded_) {
    ctx->load_m(m);
    loaded_ = true;
  }
  double taken = 0.0;
  switch (kind_) {
    case StepperKind::kHeun:
      taken = ctx ? kstep_heun(*ctx, t) : step_heun(sys, terms, m, t);
      break;
    case StepperKind::kRk4:
      taken = ctx ? kstep_rk4(*ctx, t) : step_rk4(sys, terms, m, t);
      break;
    case StepperKind::kRkf45:
      taken = ctx ? kstep_rkf45(*ctx, t) : step_rkf45(sys, terms, m, t);
      break;
  }

  // Fault-injection hook: poison the first magnetic cell (slot 0 on the
  // kernel path) at the armed step index, testing the watchdog + recovery
  // path end-to-end. No-op — one relaxed atomic load — when nothing is
  // armed.
  if (robust::FaultPlan::global().consume_nan(stats_.steps_taken)) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    if (ctx) {
      ctx->m_.x[0] = nan;
    } else {
      m[sys.active_cells().front()].x = nan;
    }
  }

  // Health scan on the raw integrator output: renormalization would mask
  // norm drift (and it preserves NaN), so check before it runs.
  if (watchdog_.cadence > 0 && stats_.steps_taken % watchdog_.cadence == 0) {
    static obs::Counter& scan_us =
        obs::MetricsRegistry::global().counter("mag.watchdog_scan.us");
    obs::ScopedTimerUs timer(scan_us);
    const double tol = watchdog_.norm_drift_tol;
    const robust::Status health =
        ctx ? ctx->scan(tol)
            : robust::scan_magnetization(m, sys.active_cells(), tol);
    if (!health.is_ok()) {
      obs::MetricsRegistry::global().counter("robust.watchdog_trips").add();
      auto& elog = obs::EventLog::global();
      if (elog.enabled(obs::LogLevel::kWarn)) {
        elog.event(obs::LogLevel::kWarn, "watchdog_trip")
            .str("kind", "state")
            .uint("step", stats_.steps_taken)
            .num("dt_s", dt_)
            .str("message", health.message())
            .emit();
      }
      throw robust::SolveError(health.with_context(
          "LLG step " + std::to_string(stats_.steps_taken) + ", dt = " +
          std::to_string(dt_)));
    }
  }

  if (ctx) {
    ctx->renormalize();
  } else {
    renormalize(sys, m);
  }
  static obs::Counter& steps =
      obs::MetricsRegistry::global().counter("mag.llg.steps");
  steps.add();
  ++stats_.steps_taken;
  stats_.last_dt = taken;
  return taken;
}

double Stepper::step_heun(const System& sys,
                          const std::vector<std::unique_ptr<FieldTerm>>& terms,
                          VectorField& m, double t) {
  VectorField k1(sys.grid()), k2(sys.grid());
  eval(sys, terms, m, t, k1);
  VectorField mp = m;
  for (std::size_t i = 0; i < m.size(); ++i) mp[i] += dt_ * k1[i];
  eval(sys, terms, mp, t + dt_, k2);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] += 0.5 * dt_ * (k1[i] + k2[i]);
  }
  return dt_;
}

double Stepper::step_rk4(const System& sys,
                         const std::vector<std::unique_ptr<FieldTerm>>& terms,
                         VectorField& m, double t) {
  VectorField k1(sys.grid()), k2(sys.grid()), k3(sys.grid()), k4(sys.grid());
  VectorField tmp = m;

  eval(sys, terms, m, t, k1);
  for (std::size_t i = 0; i < m.size(); ++i) tmp[i] = m[i] + 0.5 * dt_ * k1[i];
  eval(sys, terms, tmp, t + 0.5 * dt_, k2);
  for (std::size_t i = 0; i < m.size(); ++i) tmp[i] = m[i] + 0.5 * dt_ * k2[i];
  eval(sys, terms, tmp, t + 0.5 * dt_, k3);
  for (std::size_t i = 0; i < m.size(); ++i) tmp[i] = m[i] + dt_ * k3[i];
  eval(sys, terms, tmp, t + dt_, k4);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] += (dt_ / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
  }
  return dt_;
}

double Stepper::step_rkf45(const System& sys,
                           const std::vector<std::unique_ptr<FieldTerm>>& terms,
                           VectorField& m, double t) {
  using namespace fehlberg;

  VectorField k1(sys.grid()), k2(sys.grid()), k3(sys.grid()), k4(sys.grid()),
      k5(sys.grid()), k6(sys.grid());
  VectorField tmp = m;

  for (int attempt = 0; attempt < 32; ++attempt) {
    const double h = dt_;
    eval(sys, terms, m, t, k1);
    for (std::size_t i = 0; i < m.size(); ++i) {
      tmp[i] = m[i] + h * a2 * k1[i];
    }
    eval(sys, terms, tmp, t + a2 * h, k2);
    for (std::size_t i = 0; i < m.size(); ++i) {
      tmp[i] = m[i] + h * (b31 * k1[i] + b32 * k2[i]);
    }
    eval(sys, terms, tmp, t + a3 * h, k3);
    for (std::size_t i = 0; i < m.size(); ++i) {
      tmp[i] = m[i] + h * (b41 * k1[i] + b42 * k2[i] + b43 * k3[i]);
    }
    eval(sys, terms, tmp, t + a4 * h, k4);
    for (std::size_t i = 0; i < m.size(); ++i) {
      tmp[i] = m[i] + h * (b51 * k1[i] + b52 * k2[i] + b53 * k3[i] +
                           b54 * k4[i]);
    }
    eval(sys, terms, tmp, t + a5 * h, k5);
    for (std::size_t i = 0; i < m.size(); ++i) {
      tmp[i] = m[i] + h * (b61 * k1[i] + b62 * k2[i] + b63 * k3[i] +
                           b64 * k4[i] + b65 * k5[i]);
    }
    eval(sys, terms, tmp, t + a6 * h, k6);

    double err = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) {
      const Vec3 de = h * (e1 * k1[i] + e3 * k3[i] + e4 * k4[i] + e5 * k5[i] +
                           e6 * k6[i]);
      err = std::max(err, norm(de));
    }

    if (err <= tolerance_ || dt_ <= 1e-18) {
      for (std::size_t i = 0; i < m.size(); ++i) {
        m[i] += h * (c1 * k1[i] + c3 * k3[i] + c4 * k4[i] + c5 * k5[i] +
                     c6 * k6[i]);
      }
      // Grow the step gently for the next call (bounded at 2x).
      if (err > 0.0) {
        const double factor =
            std::min(2.0, 0.9 * std::pow(tolerance_ / err, 0.2));
        dt_ *= std::max(factor, 0.5);
      } else {
        dt_ *= 2.0;
      }
      return h;
    }

    // Reject: shrink and retry.
    ++stats_.steps_rejected;
    const double factor =
        std::max(0.1, 0.9 * std::pow(tolerance_ / err, 0.25));
    dt_ *= factor;
  }
  throw std::runtime_error(
      "Stepper(RKF45): step size underflow - system too stiff for the "
      "requested tolerance");
}

// --- Kernel-path steppers ---------------------------------------------------
//
// Stage-for-stage transcriptions of the reference steppers above onto the
// context's SoA buffers. Each stage combine rides in the epilogue of the
// sweep that produces its fresh k, the last term of every reference sum;
// the temporaries alternate between tmp_ and tmp2_, and the final update
// writes next_, which is then swapped into m_. Scalar stage factors are
// collapsed exactly as the reference's Vec3 operators collapse them
// (docs/PERFORMANCE.md lays out the correspondence), so the results are
// byte-identical.

double Stepper::kstep_heun(kernels::SolveContext& c, double t) {
  using kernels::stage;
  keval(c, c.m_, t, c.k1_, stage(c.tmp_, c.m_, dt_, {1.0}, {}));
  keval(c, c.tmp_, t + dt_, c.k2_,
        stage(c.next_, c.m_, 0.5 * dt_, {1.0, 1.0}, {&c.k1_}));
  std::swap(c.m_, c.next_);
  return dt_;
}

double Stepper::kstep_rk4(kernels::SolveContext& c, double t) {
  using kernels::stage;
  keval(c, c.m_, t, c.k1_, stage(c.tmp_, c.m_, 0.5 * dt_, {1.0}, {}));
  keval(c, c.tmp_, t + 0.5 * dt_, c.k2_,
        stage(c.tmp2_, c.m_, 0.5 * dt_, {1.0}, {}));
  keval(c, c.tmp2_, t + 0.5 * dt_, c.k3_,
        stage(c.tmp_, c.m_, dt_, {1.0}, {}));
  keval(c, c.tmp_, t + dt_, c.k4_,
        stage(c.next_, c.m_, dt_ / 6.0, {1.0, 2.0, 2.0, 1.0},
              {&c.k1_, &c.k2_, &c.k3_}));
  std::swap(c.m_, c.next_);
  return dt_;
}

double Stepper::kstep_rkf45(kernels::SolveContext& c, double t) {
  using namespace fehlberg;
  using kernels::stage;

  for (int attempt = 0; attempt < 32; ++attempt) {
    const double h = dt_;
    // Reference stage 2 associates as k1 * (h * a2) — a plain axpy.
    keval(c, c.m_, t, c.k1_, stage(c.tmp_, c.m_, h * a2, {1.0}, {}));
    keval(c, c.tmp_, t + a2 * h, c.k2_,
          stage(c.tmp2_, c.m_, h, {b31, b32}, {&c.k1_}));
    keval(c, c.tmp2_, t + a3 * h, c.k3_,
          stage(c.tmp_, c.m_, h, {b41, b42, b43}, {&c.k1_, &c.k2_}));
    keval(c, c.tmp_, t + a4 * h, c.k4_,
          stage(c.tmp2_, c.m_, h, {b51, b52, b53, b54},
                {&c.k1_, &c.k2_, &c.k3_}));
    keval(c, c.tmp2_, t + a5 * h, c.k5_,
          stage(c.tmp_, c.m_, h, {b61, b62, b63, b64, b65},
                {&c.k1_, &c.k2_, &c.k3_, &c.k4_}));
    keval(c, c.tmp_, t + a6 * h, c.k6_, kernels::Epilogue{});

    const double ecoef[5] = {e1, e3, e4, e5, e6};
    const kernels::SoaVec* const eks[5] = {&c.k1_, &c.k3_, &c.k4_, &c.k5_,
                                           &c.k6_};
    const double err = c.err_max(h, ecoef, eks);

    if (err <= tolerance_ || dt_ <= 1e-18) {
      const double coef[5] = {c1, c3, c4, c5, c6};
      c.combine(c.next_, c.m_, h, coef, eks);
      std::swap(c.m_, c.next_);
      // Grow the step gently for the next call (bounded at 2x).
      if (err > 0.0) {
        const double factor =
            std::min(2.0, 0.9 * std::pow(tolerance_ / err, 0.2));
        dt_ *= std::max(factor, 0.5);
      } else {
        dt_ *= 2.0;
      }
      return h;
    }

    // Reject: shrink and retry.
    ++stats_.steps_rejected;
    const double factor =
        std::max(0.1, 0.9 * std::pow(tolerance_ / err, 0.25));
    dt_ *= factor;
  }
  throw std::runtime_error(
      "Stepper(RKF45): step size underflow - system too stiff for the "
      "requested tolerance");
}

}  // namespace swsim::mag
