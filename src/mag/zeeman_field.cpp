#include "mag/zeeman_field.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "mag/kernels/term_op.h"
#include "math/constants.h"

namespace swsim::mag {

using swsim::math::kMu0;
using swsim::math::kPi;
using swsim::math::kTwoPi;

UniformZeemanField::UniformZeemanField(const Vec3& h_applied) : h_(h_applied) {}

void UniformZeemanField::accumulate(const System& sys, const VectorField& m,
                                    double /*t*/, VectorField& h) {
  const auto& mask = sys.mask();
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (mask[i]) h[i] += h_;
  }
}

double UniformZeemanField::energy(const System& sys,
                                  const VectorField& m) const {
  double e = 0.0;
  for (const std::uint32_t i : sys.active_cells()) {
    e += sys.ms_at(i) * dot(m[i], h_);
  }
  return -kMu0 * e * sys.grid().cell_volume();
}

bool UniformZeemanField::compile_kernel(const System&,
                                        kernels::TermOp& op) const {
  op.kind = kernels::OpKind::kUniformZeeman;
  op.hx = h_.x;
  op.hy = h_.y;
  op.hz = h_.z;
  return true;
}

Envelope Envelope::continuous() {
  return Envelope([](double) { return 1.0; });
}

Envelope Envelope::pulse(double t_on, double t_off, double ramp) {
  if (!(t_off > t_on)) {
    throw std::invalid_argument("Envelope::pulse: t_off must exceed t_on");
  }
  if (ramp < 0.0 || 2.0 * ramp > (t_off - t_on)) {
    throw std::invalid_argument("Envelope::pulse: invalid ramp");
  }
  return Envelope([=](double t) {
    if (t < t_on || t > t_off) return 0.0;
    if (ramp > 0.0 && t < t_on + ramp) {
      return 0.5 * (1.0 - std::cos(kPi * (t - t_on) / ramp));
    }
    if (ramp > 0.0 && t > t_off - ramp) {
      return 0.5 * (1.0 - std::cos(kPi * (t_off - t) / ramp));
    }
    return 1.0;
  });
}

AntennaField::AntennaField(swsim::math::Mask region, double amplitude,
                           const Vec3& direction, double frequency,
                           double phase, Envelope envelope)
    : cells_(std::move(region)),
      amplitude_(amplitude),
      direction_(swsim::math::normalized(direction)),
      frequency_(frequency),
      phase_(phase),
      envelope_(std::move(envelope)) {
  if (!(amplitude > 0.0)) {
    throw std::invalid_argument("AntennaField: amplitude must be > 0");
  }
  if (!(frequency > 0.0)) {
    throw std::invalid_argument("AntennaField: frequency must be > 0");
  }
  if (norm2(direction_) == 0.0) {
    throw std::invalid_argument("AntennaField: zero direction");
  }
}

void AntennaField::accumulate(const System& sys, const VectorField& /*m*/,
                              double t, VectorField& h) {
  if (!(cells_.region().grid() == sys.grid())) {
    throw std::invalid_argument("AntennaField: region grid mismatch");
  }
  const double env = envelope_(t);
  if (env == 0.0) return;
  const Vec3 drive =
      direction_ * (amplitude_ * env * std::sin(kTwoPi * frequency_ * t + phase_));
  // Per step the antenna costs its footprint, not a grid scan.
  for (const std::uint32_t i : cells_.of(sys)) h[i] += drive;
}

bool AntennaField::compile_kernel(const System& sys,
                                  kernels::TermOp& op) const {
  if (!(cells_.region().grid() == sys.grid())) {
    return false;  // reference path throws
  }
  op.kind = kernels::OpKind::kAntenna;
  op.ax = direction_.x;
  op.ay = direction_.y;
  op.az = direction_.z;
  op.amplitude = amplitude_;
  op.frequency = frequency_;
  op.phase = phase_;
  op.envelope = &envelope_;
  op.cells = cells_.of(sys);
  return true;
}

}  // namespace swsim::mag
