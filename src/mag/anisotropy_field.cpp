#include "mag/anisotropy_field.h"

#include <stdexcept>

#include "mag/kernels/term_op.h"
#include "math/constants.h"

namespace swsim::mag {

using swsim::math::kMu0;

UniaxialAnisotropyField::UniaxialAnisotropyField(const Vec3& axis)
    : axis_(swsim::math::normalized(axis)) {
  if (norm2(axis_) == 0.0) {
    throw std::invalid_argument("UniaxialAnisotropyField: zero axis");
  }
}

void UniaxialAnisotropyField::accumulate(const System& sys,
                                         const VectorField& m, double /*t*/,
                                         VectorField& h) {
  const double pref =
      2.0 * sys.material().ku / (kMu0 * sys.material().ms);
  const auto& mask = sys.mask();
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!mask[i]) continue;
    h[i] += pref * dot(m[i], axis_) * axis_;
  }
}

bool UniaxialAnisotropyField::compile_kernel(const System& sys,
                                             kernels::TermOp& op) const {
  op.kind = kernels::OpKind::kAnisotropy;
  op.pref = 2.0 * sys.material().ku / (kMu0 * sys.material().ms);
  op.ax = axis_.x;
  op.ay = axis_.y;
  op.az = axis_.z;
  return true;
}

double UniaxialAnisotropyField::energy(const System& sys,
                                       const VectorField& m) const {
  // E = Ku * integral (1 - (m.u)^2); the constant offset makes the aligned
  // state zero-energy, the usual convention.
  double e = 0.0;
  for (const std::uint32_t i : sys.active_cells()) {
    const double proj = dot(m[i], axis_);
    e += 1.0 - proj * proj;
  }
  return sys.material().ku * e * sys.grid().cell_volume();
}

}  // namespace swsim::mag
