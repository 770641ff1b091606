#include "mag/exchange_field.h"

#include "mag/kernels/term_op.h"
#include "math/constants.h"

namespace swsim::mag {

using swsim::math::kMu0;

namespace {

// Calls fn(i, lap) for every magnetic cell i, ascending, with the
// free-boundary Laplacian of m there, its neighbours accumulated in
// -x,+x,-y,+y,-z,+z order.
template <class Fn>
void for_each_laplacian(const System& sys, const VectorField& m, Fn fn) {
  const auto& g = sys.grid();
  const auto& mask = sys.mask();
  const double inv_dx2 = 1.0 / (g.dx() * g.dx());
  const double inv_dy2 = 1.0 / (g.dy() * g.dy());
  const double inv_dz2 = 1.0 / (g.dz() * g.dz());
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  for (const std::uint32_t i : sys.active_cells()) {
    const auto [x, y, z] = g.unindex(i);
    const Vec3& mi = m[i];
    Vec3 lap{};
    auto add_neighbor = [&](std::size_t j, double inv_d2) {
      // Free BC: absent or non-magnetic neighbours contribute nothing.
      if (mask[j]) lap += (m[j] - mi) * inv_d2;
    };
    if (x > 0) add_neighbor(g.index(x - 1, y, z), inv_dx2);
    if (x + 1 < nx) add_neighbor(g.index(x + 1, y, z), inv_dx2);
    if (y > 0) add_neighbor(g.index(x, y - 1, z), inv_dy2);
    if (y + 1 < ny) add_neighbor(g.index(x, y + 1, z), inv_dy2);
    if (z > 0) add_neighbor(g.index(x, y, z - 1), inv_dz2);
    if (z + 1 < nz) add_neighbor(g.index(x, y, z + 1), inv_dz2);
    fn(i, lap);
  }
}

double exchange_pref(const System& sys) {
  return 2.0 * sys.material().aex / (kMu0 * sys.material().ms);
}

}  // namespace

void ExchangeField::accumulate(const System& sys, const VectorField& m,
                               double /*t*/, VectorField& h) {
  const double pref = exchange_pref(sys);
  for_each_laplacian(sys, m, [&](std::size_t i, const Vec3& lap) {
    h[i] += pref * lap;
  });
}

bool ExchangeField::compile_kernel(const System& sys,
                                   kernels::TermOp& op) const {
  op.kind = kernels::OpKind::kExchange;
  // Same expression as accumulate(); the plan supplies the neighbour table.
  op.pref = exchange_pref(sys);
  return true;
}

double ExchangeField::energy(const System& sys, const VectorField& m) const {
  // E = -mu0/2 * integral Ms m . H_ex  (valid for the linear exchange field).
  // Each cell's H_ex is what accumulate() adds to a zeroed field; vacuum
  // would only add exact zeros, so only magnetic cells are summed.
  const double pref = exchange_pref(sys);
  double e = 0.0;
  for_each_laplacian(sys, m, [&](std::size_t i, const Vec3& lap) {
    Vec3 h{};
    h += pref * lap;
    e += sys.ms_at(i) * dot(m[i], h);
  });
  return -0.5 * kMu0 * e * sys.grid().cell_volume();
}

}  // namespace swsim::mag
