// LLG right-hand side and steppers: precession frequency, damping decay,
// convergence order, renormalization.
#include "mag/llg.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "mag/anisotropy_field.h"
#include "mag/demag_field.h"
#include "mag/zeeman_field.h"
#include "math/constants.h"
#include "math/lockin.h"
#include "wavenet/dispersion.h"

namespace swsim::mag {
namespace {

using namespace swsim::math;

Grid one_cell() { return Grid(1, 1, 1, 2e-9, 2e-9, 2e-9); }

Material undamped_material() {
  Material m = Material::fecob();
  m.alpha = 0.0;
  return m;
}

std::vector<std::unique_ptr<FieldTerm>> zeeman_only(double hz) {
  std::vector<std::unique_ptr<FieldTerm>> terms;
  terms.push_back(std::make_unique<UniformZeemanField>(Vec3{0, 0, hz}));
  return terms;
}

// Estimates the dominant oscillation frequency of a (possibly non-uniformly)
// sampled signal from its interpolated zero crossings — very accurate for
// near-sinusoids.
double crossing_frequency(const std::vector<double>& ts,
                          const std::vector<double>& xs) {
  std::vector<double> crossings;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    const double a = xs[i];
    const double b = xs[i + 1];
    if ((a <= 0.0 && b > 0.0) || (a >= 0.0 && b < 0.0)) {
      crossings.push_back(ts[i] + (ts[i + 1] - ts[i]) * a / (a - b));
    }
  }
  if (crossings.size() < 3) return 0.0;
  const double span = crossings.back() - crossings.front();
  return static_cast<double>(crossings.size() - 1) / (2.0 * span);
}

// Integrates a macrospin and measures the precession frequency.
double measured_precession_frequency(StepperKind kind, double hz,
                                     double alpha, double dt,
                                     std::size_t steps) {
  Material mat = Material::fecob();
  mat.alpha = alpha;
  const System sys(one_cell(), mat);
  auto terms = zeeman_only(hz);
  VectorField m(sys.grid());
  m[0] = normalized(Vec3{0.2, 0, 1.0});
  Stepper stepper(kind, dt);
  std::vector<double> ts, mx;
  double t = 0.0;
  for (std::size_t i = 0; i < steps; ++i) {
    ts.push_back(t);
    mx.push_back(m[0].x);
    t += stepper.step(sys, terms, m, t);
  }
  return crossing_frequency(ts, mx);
}

TEST(LlgRhs, TorquePerpendicularToM) {
  const System sys(one_cell(), Material::fecob());
  VectorField m(sys.grid());
  m[0] = normalized(Vec3{0.3, 0.2, 0.9});
  VectorField h(sys.grid());
  h[0] = Vec3{0, 0, 1e5};
  VectorField dmdt(sys.grid());
  llg_rhs(sys, m, h, dmdt);
  EXPECT_NEAR(dot(dmdt[0], m[0]), 0.0, 1e-3);  // |dm/dt| ~ 1e10, rel ~ 1e-13
}

TEST(LlgRhs, AlignedStateIsStationary) {
  const System sys(one_cell(), Material::fecob());
  VectorField m(sys.grid());
  m[0] = Vec3{0, 0, 1};
  VectorField h(sys.grid());
  h[0] = Vec3{0, 0, 1e5};
  VectorField dmdt(sys.grid());
  llg_rhs(sys, m, h, dmdt);
  EXPECT_NEAR(norm(dmdt[0]), 0.0, 1e-6);
}

TEST(LlgRhs, DampingPushesTowardField) {
  Material mat = Material::fecob();
  mat.alpha = 0.1;
  const System sys(one_cell(), mat);
  VectorField m(sys.grid());
  m[0] = normalized(Vec3{1, 0, 0.1});
  VectorField h(sys.grid());
  h[0] = Vec3{0, 0, 1e5};
  VectorField dmdt(sys.grid());
  llg_rhs(sys, m, h, dmdt);
  EXPECT_GT(dmdt[0].z, 0.0);  // damping raises m_z toward the field
}

TEST(LlgRhs, MaskedCellsStayZero) {
  const Grid g(2, 1, 1, 1e-9, 1e-9, 1e-9);
  Mask mask(g);
  mask.set_at(0, 0, true);
  const System sys(g, Material::fecob(), mask);
  VectorField m(g);
  m[0] = Vec3{0, 0, 1};
  VectorField h(g, Vec3{1e5, 0, 0});
  VectorField dmdt(g);
  llg_rhs(sys, m, h, dmdt);
  EXPECT_EQ(dmdt[1], (Vec3{}));
}

TEST(Llg, LarmorFrequencyRk4) {
  const double hz = 2e5;  // A/m -> f_Larmor ~ 7 GHz, period ~ 142 ps
  const double f = measured_precession_frequency(StepperKind::kRk4, hz, 0.0,
                                                 50e-15, 20000);  // 1 ns
  const double f_larmor = kGamma * kMu0 * hz / kTwoPi;
  EXPECT_NEAR(f, f_larmor, f_larmor * 0.01);
}

TEST(Llg, LarmorFrequencyHeun) {
  const double hz = 2e5;
  const double f = measured_precession_frequency(StepperKind::kHeun, hz, 0.0,
                                                 25e-15, 40000);
  const double f_larmor = kGamma * kMu0 * hz / kTwoPi;
  EXPECT_NEAR(f, f_larmor, f_larmor * 0.01);
}

TEST(Llg, LarmorFrequencyRkf45) {
  const double hz = 2e5;
  const double f = measured_precession_frequency(StepperKind::kRkf45, hz,
                                                 0.0, 50e-15, 20000);
  const double f_larmor = kGamma * kMu0 * hz / kTwoPi;
  EXPECT_NEAR(f, f_larmor, f_larmor * 0.02);
}

TEST(Llg, FmrFrequencyMatchesDispersionAtKZero) {
  // Macrospin with PMA anisotropy + thin-film demag must precess at the
  // k = 0 frequency of the analytical FVSW dispersion.
  const Material mat = undamped_material();
  const System sys(one_cell(), mat);
  std::vector<std::unique_ptr<FieldTerm>> terms;
  terms.push_back(std::make_unique<UniaxialAnisotropyField>(Vec3{0, 0, 1}));
  terms.push_back(std::make_unique<ThinFilmDemagField>());

  VectorField m(sys.grid());
  m[0] = normalized(Vec3{0.05, 0, 1.0});
  const double dt = 50e-15;
  Stepper stepper(StepperKind::kRk4, dt);
  std::vector<double> ts, mx;
  double t = 0.0;
  for (int i = 0; i < 40000; ++i) {  // 2 ns ~ 7 FMR periods
    ts.push_back(t);
    mx.push_back(m[0].x);
    t += stepper.step(sys, terms, m, t);
  }

  const wavenet::Dispersion disp(mat, 1e-9);
  const double f_expected = disp.frequency(0.0);
  const double f_measured = crossing_frequency(ts, mx);
  EXPECT_NEAR(f_measured, f_expected, f_expected * 0.01);
}

TEST(Llg, GilbertDampingDecayRate) {
  // Transverse amplitude decays as exp(-alpha omega t) for small alpha.
  const double hz = 2e5;
  const double alpha = 0.02;
  Material mat = Material::fecob();
  mat.alpha = alpha;
  const System sys(one_cell(), mat);
  auto terms = zeeman_only(hz);
  VectorField m(sys.grid());
  m[0] = normalized(Vec3{0.1, 0, 1.0});
  const double mt0 = std::hypot(m[0].x, m[0].y);

  const double dt = 20e-15;
  Stepper stepper(StepperKind::kRk4, dt);
  double t = 0.0;
  const double t_end = 2e-9;
  while (t < t_end) t += stepper.step(sys, terms, m, t);

  const double omega = kGamma * kMu0 * hz;
  const double expected = mt0 * std::exp(-alpha * omega * t);
  const double measured = std::hypot(m[0].x, m[0].y);
  EXPECT_NEAR(measured, expected, expected * 0.05);
}

TEST(Llg, NormPreservedOverLongRun) {
  const System sys(one_cell(), Material::fecob());
  auto terms = zeeman_only(3e5);
  VectorField m(sys.grid());
  m[0] = normalized(Vec3{0.5, 0.3, 0.8});
  Stepper stepper(StepperKind::kRk4, 50e-15);
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) t += stepper.step(sys, terms, m, t);
  EXPECT_NEAR(norm(m[0]), 1.0, 1e-12);
}

TEST(Llg, HeunConvergesToRk4) {
  // Same short run with both steppers at small dt agrees closely.
  auto run = [&](StepperKind kind, double dt) {
    const System sys(one_cell(), Material::fecob());
    auto terms = zeeman_only(2e5);
    VectorField m(sys.grid());
    m[0] = normalized(Vec3{0.3, 0, 1.0});
    Stepper stepper(kind, dt);
    double t = 0.0;
    while (t < 0.2e-9) t += stepper.step(sys, terms, m, t);
    return m[0];
  };
  const Vec3 heun = run(StepperKind::kHeun, 5e-15);
  const Vec3 rk4 = run(StepperKind::kRk4, 5e-15);
  EXPECT_NEAR(heun.x, rk4.x, 2e-5);
  EXPECT_NEAR(heun.y, rk4.y, 2e-5);
  EXPECT_NEAR(heun.z, rk4.z, 2e-5);
}

TEST(Llg, Rk4FourthOrderConvergence) {
  // Error vs a fine-dt reference shrinks ~16x when dt halves. The field
  // must be strong enough that truncation error dominates rounding noise.
  auto end_state = [&](double dt) {
    const System sys(one_cell(), undamped_material());
    auto terms = zeeman_only(2e6);  // omega dt ~ 0.02 at dt = 50 fs
    VectorField m(sys.grid());
    m[0] = normalized(Vec3{0.4, 0, 1.0});
    Stepper stepper(StepperKind::kRk4, dt);
    double t = 0.0;
    const double t_end = 20e-12;
    while (t < t_end - dt / 2) t += stepper.step(sys, terms, m, t);
    return m[0];
  };
  const Vec3 ref = end_state(2.5e-15);
  const double e1 = norm(end_state(80e-15) - ref);
  const double e2 = norm(end_state(40e-15) - ref);
  // Fourth order: halving dt cuts the error by ~2^4; allow slack.
  EXPECT_GT(e1 / e2, 10.0);
  EXPECT_LT(e1 / e2, 26.0);
}

TEST(Llg, HeunAndRk4OrderAgainstAnalyticMacrospin) {
  // A damped macrospin in a static field along z has a closed form. With
  // w' = gamma mu0 H / (1 + alpha^2), tan(theta/2) = tan(theta0/2)
  // exp(-alpha w' t), and the azimuth advances by +w' t in this solver's
  // sign convention. Each dt halving must cut the end-state error ~4x for
  // Heun (second order) and ~16x for RK4 (fourth order).
  const double hz = 2e6;
  Material mat = Material::fecob();
  mat.alpha = 0.1;
  const double theta0 = 0.6;
  const double t_end = 20e-12;
  const double w = kGamma * kMu0 * hz / (1.0 + mat.alpha * mat.alpha);
  const double theta = 2.0 * std::atan(std::tan(theta0 / 2.0) *
                                       std::exp(-mat.alpha * w * t_end));
  const Vec3 exact{std::sin(theta) * std::cos(w * t_end),
                   std::sin(theta) * std::sin(w * t_end), std::cos(theta)};
  const auto error = [&](StepperKind kind, double dt) {
    const System sys(one_cell(), mat);
    auto terms = zeeman_only(hz);
    VectorField m(sys.grid());
    m[0] = Vec3{std::sin(theta0), 0.0, std::cos(theta0)};
    Stepper stepper(kind, dt);
    double t = 0.0;
    for (long i = std::lround(t_end / dt); i > 0; --i) {
      t += stepper.step(sys, terms, m, t);
    }
    return norm(m[0] - exact);
  };
  for (const double dt : {80e-15, 40e-15}) {  // w' dt ~ 0.035, 0.017
    const double heun = error(StepperKind::kHeun, dt) /
                        error(StepperKind::kHeun, dt / 2);
    EXPECT_GT(heun, 3.8) << "dt " << dt;
    EXPECT_LT(heun, 4.2) << "dt " << dt;
    const double rk4 = error(StepperKind::kRk4, dt) /
                       error(StepperKind::kRk4, dt / 2);
    EXPECT_GT(rk4, 15.0) << "dt " << dt;
    EXPECT_LT(rk4, 17.0) << "dt " << dt;
  }
  EXPECT_LT(error(StepperKind::kRk4, 20e-15), 1e-9);
}

TEST(Llg, Rkf45RespectsTolerance) {
  const System sys(one_cell(), undamped_material());
  auto terms = zeeman_only(5e5);
  VectorField m(sys.grid());
  m[0] = normalized(Vec3{0.4, 0, 1.0});
  Stepper stepper(StepperKind::kRkf45, 1e-12, /*tolerance=*/1e-8);
  double t = 0.0;
  while (t < 0.2e-9) t += stepper.step(sys, terms, m, t);
  EXPECT_NEAR(norm(m[0]), 1.0, 1e-10);
  EXPECT_GT(stepper.stats().steps_taken, 0u);
}

TEST(Stepper, RejectsBadConstruction) {
  EXPECT_THROW(Stepper(StepperKind::kRk4, 0.0), std::invalid_argument);
  EXPECT_THROW(Stepper(StepperKind::kRkf45, 1e-15, 0.0),
               std::invalid_argument);
}

TEST(Stepper, StatsCountEvaluations) {
  const System sys(one_cell(), Material::fecob());
  auto terms = zeeman_only(1e5);
  VectorField m(sys.grid());
  m[0] = Vec3{0.1, 0, 1};
  Stepper heun(StepperKind::kHeun, 1e-14);
  heun.step(sys, terms, m, 0.0);
  EXPECT_EQ(heun.stats().field_evaluations, 2u);
  EXPECT_EQ(heun.stats().steps_taken, 1u);

  Stepper rk4(StepperKind::kRk4, 1e-14);
  rk4.step(sys, terms, m, 0.0);
  EXPECT_EQ(rk4.stats().field_evaluations, 4u);
}

TEST(Renormalize, RestoresUnitLength) {
  const System sys(one_cell(), Material::fecob());
  VectorField m(sys.grid());
  m[0] = Vec3{0.5, 0.5, 0.5};
  renormalize(sys, m);
  EXPECT_NEAR(norm(m[0]), 1.0, 1e-15);
}

}  // namespace
}  // namespace swsim::mag
