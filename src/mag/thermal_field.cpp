#include "mag/thermal_field.h"

#include <cmath>
#include <stdexcept>

#include "math/constants.h"

namespace swsim::mag {

using namespace swsim::math;

ThermalField::ThermalField(double temperature, std::uint64_t seed)
    : temperature_(temperature), rng_(seed) {
  if (temperature < 0.0) {
    throw std::invalid_argument("ThermalField: temperature must be >= 0");
  }
}

double ThermalField::sigma(const System& sys, double dt) const {
  if (!(dt > 0.0)) return 0.0;
  const Material& mat = sys.material();
  const double v = sys.grid().cell_volume();
  return std::sqrt(2.0 * mat.alpha * kBoltzmann * temperature_ /
                   (kMu0 * kGamma * mat.ms * v * dt));
}

void ThermalField::ensure_noise(const System& sys) {
  const bool same_grid = noise_.grid() == sys.grid();
  if (noise_ready_ && same_grid) return;
  // The buffer is reused across steps; a redraw overwrites every magnetic
  // cell, in ascending order, and accumulate() reads no other cell.
  if (!same_grid) noise_ = VectorField(sys.grid());
  for (const std::uint32_t i : sys.active_cells()) {
    noise_[i] = {rng_.normal(), rng_.normal(), rng_.normal()};
  }
  noise_ready_ = true;
}

void ThermalField::accumulate(const System& sys, const VectorField& /*m*/,
                              double /*t*/, VectorField& h) {
  if (temperature_ == 0.0 || dt_ == 0.0) return;
  ensure_noise(sys);
  const double s = sigma(sys, dt_);
  for (const std::uint32_t i : sys.active_cells()) h[i] += s * noise_[i];
}

void ThermalField::advance_step(double dt) {
  dt_ = dt;
  // Force a fresh noise draw at the next accumulate().
  noise_ready_ = false;
}

}  // namespace swsim::mag
