#include "mag/kernels/sweep.h"

#include <algorithm>
#include <cmath>

#include "mag/zeeman_field.h"
#include "math/constants.h"

namespace swsim::mag::kernels {

using swsim::math::kTwoPi;

void resolve_ops(const KernelPlan& p, double t, std::vector<EvalOp>& out) {
  out.clear();
  for (const TermOp& op : p.ops) {
    EvalOp e;
    e.kind = op.kind;
    switch (op.kind) {
      case OpKind::kExchange:
        e.pref = op.pref;
        break;
      case OpKind::kAnisotropy:
        e.pref = op.pref;
        e.ax = op.ax;
        e.ay = op.ay;
        e.az = op.az;
        break;
      case OpKind::kThinFilmDemag:
        break;
      case OpKind::kUniformZeeman:
        e.dx = op.hx;
        e.dy = op.hy;
        e.dz = op.hz;
        break;
      case OpKind::kAntenna: {
        e.gate = op.gate.data();
        const double env = (*op.envelope)(t);
        if (env == 0.0) {
          // Reference accumulate() returns before touching h.
          e.skip = true;
          break;
        }
        // Exactly the reference drive: direction * (A * env * sin(w t + p)),
        // the scalar factor collapsed first as in the Vec3 * double operator.
        const double s =
            op.amplitude * env * std::sin(kTwoPi * op.frequency * t + op.phase);
        e.dx = op.ax * s;
        e.dy = op.ay * s;
        e.dz = op.az * s;
        break;
      }
    }
    out.push_back(e);
  }
}

void axpy(SoaVec& out, const SoaVec& base, double s, const SoaVec& k,
          std::size_t b, std::size_t e) {
  double* __restrict ox = out.x.data();
  double* __restrict oy = out.y.data();
  double* __restrict oz = out.z.data();
  const double* __restrict bx = base.x.data();
  const double* __restrict by = base.y.data();
  const double* __restrict bz = base.z.data();
  const double* __restrict kx = k.x.data();
  const double* __restrict ky = k.y.data();
  const double* __restrict kz = k.z.data();
  for (std::size_t i = b; i < e; ++i) {
    ox[i] = bx[i] + kx[i] * s;
    oy[i] = by[i] + ky[i] * s;
    oz[i] = bz[i] + kz[i] * s;
  }
}

double err_max_range(double h, const double (&c)[5],
                     const SoaVec* const (&k)[5], std::size_t b,
                     std::size_t e) {
  double worst = 0.0;
  for (std::size_t i = b; i < e; ++i) {
    double ax = k[0]->x[i] * c[0];
    double ay = k[0]->y[i] * c[0];
    double az = k[0]->z[i] * c[0];
    for (int j = 1; j < 5; ++j) {
      ax += k[j]->x[i] * c[j];
      ay += k[j]->y[i] * c[j];
      az += k[j]->z[i] * c[j];
    }
    const double dx = ax * h, dy = ay * h, dz = az * h;
    const double nrm = std::sqrt(dx * dx + dy * dy + dz * dz);
    worst = std::max(worst, nrm);
  }
  return worst;
}

FusedSweep make_sweep(const KernelPlan& p, const SoaVec& m,
                      const std::vector<EvalOp>& ops, SoaVec& dmdt) {
  return FusedSweep{m.x.data(),
                    m.y.data(),
                    m.z.data(),
                    dmdt.x.data(),
                    dmdt.y.data(),
                    dmdt.z.data(),
                    p.nb.data(),
                    p.slots(),
                    p.alpha.data(),
                    p.llg_pref.data(),
                    p.ms.data(),
                    {p.inv_d2[0], p.inv_d2[1], p.inv_d2[2]},
                    {p.axis_used[0], p.axis_used[1], p.axis_used[2]},
                    ops.data(),
                    ops.size()};
}

// The variant objects' entry points (fused_<isa>.cpp). Each is compiled
// for its own instruction set, so nothing may call one before its
// `supported` check has passed.
void fused_sse2(const FusedSweep& s, std::size_t b, std::size_t e);
void fused_avx2(const FusedSweep& s, std::size_t b, std::size_t e);
void fused_avx512(const FusedSweep& s, std::size_t b, std::size_t e);

namespace {

bool always() { return true; }
bool has_avx2() { return __builtin_cpu_supports("avx2"); }
bool has_avx512f() { return __builtin_cpu_supports("avx512f"); }

constexpr SweepVariant kVariants[] = {
    {"sse2", always, fused_sse2},
    {"avx2", has_avx2, fused_avx2},
    {"avx512", has_avx512f, fused_avx512},
};

}  // namespace

std::span<const SweepVariant> sweep_variants() { return kVariants; }

const SweepVariant& sweep_variant() {
  static const SweepVariant& chosen = []() -> const SweepVariant& {
    const SweepVariant* widest = &kVariants[0];
    for (const SweepVariant& v : kVariants) {
      if (v.supported()) widest = &v;
    }
    return *widest;
  }();
  return chosen;
}

}  // namespace swsim::mag::kernels
