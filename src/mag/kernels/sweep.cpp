#include "mag/kernels/sweep.h"

#include <emmintrin.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

void renormalize_range(SoaVec& m, std::size_t b, std::size_t e) {
  double* x = m.x.data();
  double* y = m.y.data();
  double* z = m.z.data();
  // Baseline SSE2: the n > 0 select keeps GCC from vectorizing the plain
  // loop, and a divide-bound loop gains nothing from wider lanes. Lanes
  // where n is not > 0 keep their bits through the and/andnot blend.
  std::size_t i = b;
  for (; i + 2 <= e; i += 2) {
    const __m128d vx = _mm_loadu_pd(x + i);
    const __m128d vy = _mm_loadu_pd(y + i);
    const __m128d vz = _mm_loadu_pd(z + i);
    const __m128d n = _mm_sqrt_pd(_mm_add_pd(
        _mm_add_pd(_mm_mul_pd(vx, vx), _mm_mul_pd(vy, vy)),
        _mm_mul_pd(vz, vz)));
    const __m128d pos = _mm_cmpgt_pd(n, _mm_setzero_pd());
    const auto pick = [&](__m128d v) {
      return _mm_or_pd(_mm_and_pd(pos, _mm_div_pd(v, n)),
                       _mm_andnot_pd(pos, v));
    };
    _mm_storeu_pd(x + i, pick(vx));
    _mm_storeu_pd(y + i, pick(vy));
    _mm_storeu_pd(z + i, pick(vz));
  }
  for (; i < e; ++i) {
    const double n = std::sqrt(x[i] * x[i] + y[i] * y[i] + z[i] * z[i]);
    if (n > 0.0) {
      x[i] /= n;
      y[i] /= n;
      z[i] /= n;
    }
  }
}

Epilogue stage(SoaVec& out, const SoaVec& base, double h,
               std::initializer_list<double> c,
               std::initializer_list<const SoaVec*> k) {
  if (c.size() != k.size() + 1 || k.size() > Epilogue::kMaxK) {
    throw std::invalid_argument(
        "kernels::stage: want one coefficient per k plus one for dm/dt, "
        "at most 4 earlier ks");
  }
  Epilogue epi;
  epi.out = &out;
  epi.base = &base;
  epi.h = h;
  epi.n = k.size();
  std::copy(c.begin(), c.end(), epi.c);
  std::copy(k.begin(), k.end(), epi.k);
  return epi;
}

FusedSweep make_sweep(const KernelPlan& p, const SoaVec& m,
                      const std::vector<EvalOp>& ops, SoaVec& dmdt,
                      const Epilogue& epi) {
  FusedSweep s{m.x.data(),
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
  if (epi.out) {
    s.tx = epi.out->x.data();
    s.ty = epi.out->y.data();
    s.tz = epi.out->z.data();
    s.bx = epi.base->x.data();
    s.by = epi.base->y.data();
    s.bz = epi.base->z.data();
    for (std::size_t j = 0; j < epi.n; ++j) {
      s.kx[j] = epi.k[j]->x.data();
      s.ky[j] = epi.k[j]->y.data();
      s.kz[j] = epi.k[j]->z.data();
    }
    std::copy(epi.c, epi.c + epi.n + 1, s.c);
    s.nk = epi.n;
    s.h = epi.h;
  }
  return s;
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
