#include "mag/kernels/soa.h"

namespace swsim::mag::kernels {

void gather(SoaVec& dst, const swsim::math::VectorField& src,
            const std::vector<std::uint32_t>& cells) {
  const std::size_t n = cells.size();
  if (dst.size() != n) dst.assign_zero(n);
  const swsim::math::Vec3* s = src.data().data();
  const std::uint32_t* c = cells.data();
  double* px = dst.x.data();
  double* py = dst.y.data();
  double* pz = dst.z.data();
  for (std::size_t k = 0; k < n; ++k) {
    const swsim::math::Vec3& v = s[c[k]];
    px[k] = v.x;
    py[k] = v.y;
    pz[k] = v.z;
  }
}

void scatter(const SoaVec& src, const std::vector<std::uint32_t>& cells,
             swsim::math::VectorField& dst) {
  const std::size_t n = cells.size();
  swsim::math::Vec3* d = dst.data().data();
  const std::uint32_t* c = cells.data();
  const double* px = src.x.data();
  const double* py = src.y.data();
  const double* pz = src.z.data();
  for (std::size_t k = 0; k < n; ++k) {
    swsim::math::Vec3& v = d[c[k]];
    v.x = px[k];
    v.y = py[k];
    v.z = pz[k];
  }
}

}  // namespace swsim::mag::kernels
