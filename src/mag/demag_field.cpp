#include "mag/demag_field.h"

#include <cmath>

#include "mag/kernels/term_op.h"
#include "math/constants.h"
#include "math/fft.h"

namespace swsim::mag {

using swsim::math::Complex;
using swsim::math::fft3d;
using swsim::math::kMu0;
using swsim::math::kPi;
using swsim::math::next_pow2;

// --- Thin-film local approximation -----------------------------------------

void ThinFilmDemagField::accumulate(const System& sys, const VectorField& m,
                                    double /*t*/, VectorField& h) {
  const auto& mask = sys.mask();
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!mask[i]) continue;
    h[i].z -= sys.ms_at(i) * m[i].z;
  }
}

bool ThinFilmDemagField::compile_kernel(const System&,
                                        kernels::TermOp& op) const {
  op.kind = kernels::OpKind::kThinFilmDemag;  // h.z -= ms(i) * m.z
  return true;
}

double ThinFilmDemagField::energy(const System& sys,
                                  const VectorField& m) const {
  // E = + mu0/2 * integral Ms^2 m_z^2 (self-consistent with the local field).
  double e = 0.0;
  for (const std::uint32_t i : sys.active_cells()) {
    const double mz = m[i].z * sys.ms_at(i);
    e += mz * mz;
  }
  return 0.5 * kMu0 * e * sys.grid().cell_volume();
}

// --- Newell tensor -----------------------------------------------------------

namespace {

// Newell's auxiliary functions f (diagonal components) and g (off-diagonal),
// Newell, Williams & Dunlop, JGR 98 (1993). Guarded against the removable
// singularities on the coordinate planes.
double newell_f(double x, double y, double z) {
  const double x2 = x * x, y2 = y * y, z2 = z * z;
  const double r = std::sqrt(x2 + y2 + z2);
  double result = (1.0 / 6.0) * (2.0 * x2 - y2 - z2) * r;
  if (x2 + z2 > 0.0) {
    result += 0.5 * y * (z2 - x2) * std::asinh(y / std::sqrt(x2 + z2));
  }
  if (x2 + y2 > 0.0) {
    result += 0.5 * z * (y2 - x2) * std::asinh(z / std::sqrt(x2 + y2));
  }
  if (x != 0.0 && r > 0.0) {
    result -= x * y * z * std::atan((y * z) / (x * r));
  }
  return result;
}

double newell_g(double x, double y, double z) {
  const double x2 = x * x, y2 = y * y, z2 = z * z;
  const double r = std::sqrt(x2 + y2 + z2);
  double result = -(x * y * r) / 3.0;
  if (x2 + y2 > 0.0) {
    result += x * y * z * std::asinh(z / std::sqrt(x2 + y2));
  }
  if (y2 + z2 > 0.0) {
    result += (y / 6.0) * (3.0 * z2 - y2) * std::asinh(x / std::sqrt(y2 + z2));
  }
  if (x2 + z2 > 0.0) {
    result += (x / 6.0) * (3.0 * z2 - x2) * std::asinh(y / std::sqrt(x2 + z2));
  }
  if (z != 0.0 && r > 0.0) {
    result -= (z2 * z / 6.0) * std::atan((x * y) / (z * r));
  }
  if (y != 0.0 && r > 0.0) {
    result -= (z * y2 / 2.0) * std::atan((x * z) / (y * r));
  }
  if (x != 0.0 && r > 0.0) {
    result -= (z * x2 / 2.0) * std::atan((y * z) / (x * r));
  }
  return result;
}

// Second-difference weights over {-1, 0, +1}: the 64-corner alternating sum
// of the Newell formulation collapses to (-1, 2, -1) per axis.
constexpr double kW[3] = {-1.0, 2.0, -1.0};

double triple_difference(double (*fn)(double, double, double), double x,
                         double y, double z, double dx, double dy, double dz) {
  double acc = 0.0;
  for (int p = -1; p <= 1; ++p) {
    for (int q = -1; q <= 1; ++q) {
      for (int s = -1; s <= 1; ++s) {
        acc += kW[p + 1] * kW[q + 1] * kW[s + 1] *
               fn(x + p * dx, y + q * dy, z + s * dz);
      }
    }
  }
  return acc;
}

}  // namespace

double newell_nxx(double x, double y, double z, double dx, double dy,
                  double dz) {
  return triple_difference(newell_f, x, y, z, dx, dy, dz) /
         (4.0 * kPi * dx * dy * dz);
}

double newell_nxy(double x, double y, double z, double dx, double dy,
                  double dz) {
  return triple_difference(newell_g, x, y, z, dx, dy, dz) /
         (4.0 * kPi * dx * dy * dz);
}

// --- FFT-convolution demag ----------------------------------------------------

NewellDemagField::NewellDemagField(const System& sys) {
  const auto& g = sys.grid();
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  // Zero padding to >= 2n-1 per axis (rounded to a power of two) turns the
  // aperiodic convolution into a circular one without wrap-around.
  px_ = next_pow2(nx > 1 ? 2 * nx : 1);
  py_ = next_pow2(ny > 1 ? 2 * ny : 1);
  pz_ = next_pow2(nz > 1 ? 2 * nz : 1);
  const std::size_t pn = px_ * py_ * pz_;

  kxx_.assign(pn, Complex{});
  kyy_.assign(pn, Complex{});
  kzz_.assign(pn, Complex{});
  kxy_.assign(pn, Complex{});
  kxz_.assign(pn, Complex{});
  kyz_.assign(pn, Complex{});

  const double dx = g.dx(), dy = g.dy(), dz = g.dz();
  const auto lx = static_cast<long>(nx);
  const auto ly = static_cast<long>(ny);
  const auto lz = static_cast<long>(nz);
  for (long oz = -(lz - 1); oz <= lz - 1; ++oz) {
    for (long oy = -(ly - 1); oy <= ly - 1; ++oy) {
      for (long ox = -(lx - 1); ox <= lx - 1; ++ox) {
        const double x = static_cast<double>(ox) * dx;
        const double y = static_cast<double>(oy) * dy;
        const double z = static_cast<double>(oz) * dz;
        // Circulant embedding: negative offsets wrap to the top of the
        // padded array.
        const std::size_t ix =
            static_cast<std::size_t>((ox + static_cast<long>(px_)) %
                                     static_cast<long>(px_));
        const std::size_t iy =
            static_cast<std::size_t>((oy + static_cast<long>(py_)) %
                                     static_cast<long>(py_));
        const std::size_t iz =
            static_cast<std::size_t>((oz + static_cast<long>(pz_)) %
                                     static_cast<long>(pz_));
        const std::size_t idx = ix + px_ * (iy + py_ * iz);
        kxx_[idx] = newell_nxx(x, y, z, dx, dy, dz);
        kyy_[idx] = newell_nxx(y, x, z, dy, dx, dz);  // axis permutation
        kzz_[idx] = newell_nxx(z, y, x, dz, dy, dx);
        kxy_[idx] = newell_nxy(x, y, z, dx, dy, dz);
        kxz_[idx] = newell_nxy(x, z, y, dx, dz, dy);
        kyz_[idx] = newell_nxy(y, z, x, dy, dz, dx);
      }
    }
  }

  fft3d(kxx_, px_, py_, pz_);
  fft3d(kyy_, px_, py_, pz_);
  fft3d(kzz_, px_, py_, pz_);
  fft3d(kxy_, px_, py_, pz_);
  fft3d(kxz_, px_, py_, pz_);
  fft3d(kyz_, px_, py_, pz_);
}

VectorField NewellDemagField::compute(const System& sys,
                                      const VectorField& m) const {
  const auto& g = sys.grid();
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const std::size_t pn = px_ * py_ * pz_;

  std::vector<Complex> mx(pn), my(pn), mz(pn);
  for (std::size_t z = 0; z < nz; ++z) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        const std::size_t i = g.index(x, y, z);
        const std::size_t p = x + px_ * (y + py_ * z);
        const double ms = sys.ms_at(i);
        mx[p] = m[i].x * ms;
        my[p] = m[i].y * ms;
        mz[p] = m[i].z * ms;
      }
    }
  }

  fft3d(mx, px_, py_, pz_);
  fft3d(my, px_, py_, pz_);
  fft3d(mz, px_, py_, pz_);

  std::vector<Complex> hx(pn), hy(pn), hz(pn);
  for (std::size_t p = 0; p < pn; ++p) {
    hx[p] = -(kxx_[p] * mx[p] + kxy_[p] * my[p] + kxz_[p] * mz[p]);
    hy[p] = -(kxy_[p] * mx[p] + kyy_[p] * my[p] + kyz_[p] * mz[p]);
    hz[p] = -(kxz_[p] * mx[p] + kyz_[p] * my[p] + kzz_[p] * mz[p]);
  }

  fft3d(hx, px_, py_, pz_, /*inverse=*/true);
  fft3d(hy, px_, py_, pz_, /*inverse=*/true);
  fft3d(hz, px_, py_, pz_, /*inverse=*/true);

  VectorField h(g);
  const auto& mask = sys.mask();
  for (std::size_t z = 0; z < nz; ++z) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        const std::size_t i = g.index(x, y, z);
        if (!mask[i]) continue;
        const std::size_t p = x + px_ * (y + py_ * z);
        h[i] = {hx[p].real(), hy[p].real(), hz[p].real()};
      }
    }
  }
  return h;
}

void NewellDemagField::accumulate(const System& sys, const VectorField& m,
                                  double /*t*/, VectorField& h) {
  const VectorField hd = compute(sys, m);
  const auto& mask = sys.mask();
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (mask[i]) h[i] += hd[i];
  }
}

double NewellDemagField::energy(const System& sys,
                                const VectorField& m) const {
  const VectorField hd = compute(sys, m);
  double e = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    e += sys.ms_at(i) * dot(m[i], hd[i]);
  }
  return -0.5 * kMu0 * e * sys.grid().cell_volume();
}

}  // namespace swsim::mag
