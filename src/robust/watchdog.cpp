#include "robust/watchdog.h"

#include <cmath>
#include <string>

namespace swsim::robust {

Status check_cell(const swsim::math::Vec3& m, std::size_t cell,
                  double norm_drift_tol) {
  if (!std::isfinite(m.x) || !std::isfinite(m.y) || !std::isfinite(m.z)) {
    return Status::error(
        StatusCode::kNumericalDivergence,
        "non-finite magnetization at cell " + std::to_string(cell));
  }
  if (norm_drift_tol > 0.0) {
    const double drift = std::fabs(norm(m) - 1.0);
    if (drift > norm_drift_tol) {
      return Status::error(StatusCode::kNumericalDivergence,
                           "|m| drift " + std::to_string(drift) +
                               " at cell " + std::to_string(cell));
    }
  }
  return Status::ok();
}

Status scan_magnetization(const swsim::math::VectorField& m,
                          const std::vector<std::uint32_t>& cells,
                          double norm_drift_tol) {
  for (const std::uint32_t i : cells) {
    Status health = check_cell(m[i], i, norm_drift_tol);
    if (!health.is_ok()) return health;
  }
  return Status::ok();
}

void EnergyWatchdog::reset() {
  checks_ = 0;
  reference_ = 0.0;
}

Status EnergyWatchdog::check(double energy, double growth_factor,
                             std::size_t warmup_checks) {
  if (!std::isfinite(energy)) {
    return Status::error(StatusCode::kNumericalDivergence,
                         "total energy is non-finite");
  }
  const double magnitude = std::fabs(energy);
  ++checks_;
  // Warmup: ratchet the reference to the running max |E|. Also keep
  // ratcheting past warmup while the reference is physically negligible
  // (a zero-energy start with a late drive ramp): enforcing a growth
  // bound against numerical noise would flag the first healthy energy.
  if (checks_ <= warmup_checks || reference_ < kNegligibleEnergy) {
    reference_ = std::max(reference_, magnitude);
    return Status::ok();
  }
  if (growth_factor > 0.0 && magnitude > growth_factor * reference_) {
    return Status::error(StatusCode::kNumericalDivergence,
                         "total energy grew to " + std::to_string(energy) +
                             " J (reference magnitude " +
                             std::to_string(reference_) + " J)");
  }
  return Status::ok();
}

}  // namespace swsim::robust
