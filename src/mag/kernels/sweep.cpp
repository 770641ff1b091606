#include "mag/kernels/sweep.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX__)
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#endif

namespace swsim::mag::kernels {

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

namespace {

// ---------------------------------------------------------------------------
// Lane abstraction for the fused sweep. One lane = one cell; every
// arithmetic intrinsic below is the IEEE-754 double operation applied per
// lane, so an N-wide block computes exactly what N scalar iterations
// would. No FMA is ever emitted from these (mul and add stay separate
// instructions), keeping results identical across -march levels as long
// as contraction stays off in the scalar reference too (the default
// target has no FMA; SWSIM_NATIVE builds add -ffp-contract=off).

struct ScalarLane {
  static constexpr std::size_t kWidth = 1;
  double v;
  static ScalarLane load(const double* p) { return {*p}; }
  void store(double* p) const { *p = v; }
  static ScalarLane set1(double s) { return {s}; }
  static ScalarLane zero() { return {0.0}; }
  friend ScalarLane operator+(ScalarLane a, ScalarLane b) {
    return {a.v + b.v};
  }
  friend ScalarLane operator-(ScalarLane a, ScalarLane b) {
    return {a.v - b.v};
  }
  friend ScalarLane operator*(ScalarLane a, ScalarLane b) {
    return {a.v * b.v};
  }
  // h + d where the gate is nonzero; h's bits untouched elsewhere.
  static ScalarLane gated_add(ScalarLane h, ScalarLane gate, ScalarLane d) {
    return gate.v != 0.0 ? ScalarLane{h.v + d.v} : h;
  }
};

#if defined(__AVX__)

struct SimdLane {
  static constexpr std::size_t kWidth = 4;
  __m256d v;
  static SimdLane load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  static SimdLane set1(double s) { return {_mm256_set1_pd(s)}; }
  static SimdLane zero() { return {_mm256_setzero_pd()}; }
  friend SimdLane operator+(SimdLane a, SimdLane b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend SimdLane operator-(SimdLane a, SimdLane b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend SimdLane operator*(SimdLane a, SimdLane b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  static SimdLane gated_add(SimdLane h, SimdLane gate, SimdLane d) {
    const __m256d on =
        _mm256_cmp_pd(gate.v, _mm256_setzero_pd(), _CMP_NEQ_OQ);
    return {_mm256_blendv_pd(h.v, _mm256_add_pd(h.v, d.v), on)};
  }
};

#elif defined(__SSE2__) || defined(_M_X64)

struct SimdLane {
  static constexpr std::size_t kWidth = 2;
  __m128d v;
  static SimdLane load(const double* p) { return {_mm_loadu_pd(p)}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }
  static SimdLane set1(double s) { return {_mm_set1_pd(s)}; }
  static SimdLane zero() { return {_mm_setzero_pd()}; }
  friend SimdLane operator+(SimdLane a, SimdLane b) {
    return {_mm_add_pd(a.v, b.v)};
  }
  friend SimdLane operator-(SimdLane a, SimdLane b) {
    return {_mm_sub_pd(a.v, b.v)};
  }
  friend SimdLane operator*(SimdLane a, SimdLane b) {
    return {_mm_mul_pd(a.v, b.v)};
  }
  static SimdLane gated_add(SimdLane h, SimdLane gate, SimdLane d) {
    const __m128d on = _mm_cmpneq_pd(gate.v, _mm_setzero_pd());
    const __m128d sum = _mm_add_pd(h.v, d.v);
    return {_mm_or_pd(_mm_and_pd(on, sum), _mm_andnot_pd(on, h.v))};
  }
};

#else

using SimdLane = ScalarLane;  // portable fallback: scalar blocks

#endif

// The LLG right-hand side for one lane-block, exactly llg_rhs()'s
// expression: dmdt = pref * (m x h + alpha * m x (m x h)).
template <class V>
inline void llg_lanes(V mx, V my, V mz, V hx, V hy, V hz, V alpha, V pref,
                      V& ox, V& oy, V& oz) {
  const V cx = my * hz - mz * hy;
  const V cy = mz * hx - mx * hz;
  const V cz = mx * hy - my * hx;
  const V tx = my * cz - mz * cy;
  const V ty = mz * cx - mx * cz;
  const V tz = mx * cy - my * cx;
  ox = (cx + tx * alpha) * pref;
  oy = (cy + ty * alpha) * pref;
  oz = (cz + tz * alpha) * pref;
}

// The one per-cell op sequence of the kernel layer: for the V::kWidth
// cells starting at slot i, accumulate every op in term order, then the
// rhs. Exchange reads m at i + nbo[k], the slot offsets of the
// -x,+x,-y,+y,-z,+z neighbours; an absent or vacuum neighbour has offset
// 0, whose (m[i] - m[i]) * w is an exact +0.0, bit-identical to the
// reference skipping it. An antenna op runs where its bit is set in
// `antenna` and then adds its drive where the gate is 1.0.
template <class V>
inline void fused_block(const KernelPlan& p, const double* __restrict mx,
                        const double* __restrict my,
                        const double* __restrict mz, const EvalOp* ops,
                        std::size_t nops, const std::ptrdiff_t* nbo,
                        std::uint8_t antenna, double* __restrict ox,
                        double* __restrict oy, double* __restrict oz,
                        std::size_t i) {
  const V mix = V::load(mx + i);
  const V miy = V::load(my + i);
  const V miz = V::load(mz + i);
  V hx = V::zero(), hy = V::zero(), hz = V::zero();
  for (std::size_t o = 0; o < nops; ++o) {
    const EvalOp& op = ops[o];
    switch (op.kind) {
      case OpKind::kExchange: {
        V lx = V::zero(), ly = V::zero(), lz = V::zero();
        for (int a = 0; a < 3; ++a) {
          if (!p.axis_used[a]) continue;
          const V w = V::set1(p.inv_d2[a]);
          for (int side = 0; side < 2; ++side) {
            const std::size_t j = i + nbo[2 * a + side];
            lx = lx + (V::load(mx + j) - mix) * w;
            ly = ly + (V::load(my + j) - miy) * w;
            lz = lz + (V::load(mz + j) - miz) * w;
          }
        }
        const V pref = V::set1(op.pref);
        hx = hx + lx * pref;
        hy = hy + ly * pref;
        hz = hz + lz * pref;
        break;
      }
      case OpKind::kAnisotropy: {
        const V vax = V::set1(op.ax), vay = V::set1(op.ay),
                vaz = V::set1(op.az);
        V d = mix * vax + miy * vay;
        d = d + miz * vaz;
        const V sc = V::set1(op.pref) * d;
        hx = hx + vax * sc;
        hy = hy + vay * sc;
        hz = hz + vaz * sc;
        break;
      }
      case OpKind::kThinFilmDemag:
        hz = hz - V::load(p.ms.data() + i) * miz;
        break;
      case OpKind::kUniformZeeman:
        hx = hx + V::set1(op.dx);
        hy = hy + V::set1(op.dy);
        hz = hz + V::set1(op.dz);
        break;
      case OpKind::kAntenna:
        if (!op.skip && (antenna & op.bit)) {
          const V g = V::load(op.gate->data() + i);
          hx = V::gated_add(hx, g, V::set1(op.dx));
          hy = V::gated_add(hy, g, V::set1(op.dy));
          hz = V::gated_add(hz, g, V::set1(op.dz));
        }
        break;
    }
  }
  V rx, ry, rz;
  llg_lanes(mix, miy, miz, hx, hy, hz, V::load(p.alpha.data() + i),
            V::load(p.llg_pref.data() + i), rx, ry, rz);
  rx.store(ox + i);
  ry.store(oy + i);
  rz.store(oz + i);
}

}  // namespace

void fused_run(const KernelPlan& p, const SoaVec& m,
               const std::vector<EvalOp>& ops, SoaVec& dmdt,
               const KernelPlan::Run& run, std::size_t sb, std::size_t se) {
  const double* mx = m.x.data();
  const double* my = m.y.data();
  const double* mz = m.z.data();
  double* ox = dmdt.x.data();
  double* oy = dmdt.y.data();
  double* oz = dmdt.z.data();
  const EvalOp* op0 = ops.data();
  const std::size_t nops = ops.size();
  const std::ptrdiff_t nbo[6] = {-1, 1, run.off[0], run.off[1], run.off[2],
                                 run.off[3]};
  std::size_t i = sb;
  for (; i + SimdLane::kWidth <= se; i += SimdLane::kWidth) {
    fused_block<SimdLane>(p, mx, my, mz, op0, nops, nbo, run.antenna, ox, oy,
                          oz, i);
  }
  for (; i < se; ++i) {
    fused_block<ScalarLane>(p, mx, my, mz, op0, nops, nbo, run.antenna, ox,
                            oy, oz, i);
  }
}

void fused_edge(const KernelPlan& p, const SoaVec& m,
                const std::vector<EvalOp>& ops, SoaVec& dmdt, std::size_t eb,
                std::size_t ee) {
  const double* mx = m.x.data();
  const double* my = m.y.data();
  const double* mz = m.z.data();
  double* ox = dmdt.x.data();
  double* oy = dmdt.y.data();
  double* oz = dmdt.z.data();
  const EvalOp* op0 = ops.data();
  const std::size_t nops = ops.size();
  // Every antenna bit set: an edge slot's antenna ops go by the gate.
  for (std::size_t j = eb; j < ee; ++j) {
    fused_block<ScalarLane>(p, mx, my, mz, op0, nops, &p.edge_off[6 * j],
                            0xFF, ox, oy, oz, p.edge_slots[j]);
  }
}

}  // namespace swsim::mag::kernels
