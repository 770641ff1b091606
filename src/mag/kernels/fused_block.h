// The fused field + LLG-rhs sweep body, compiled once per lane width.
//
// Only the variant objects (fused_sse2.cpp, fused_avx2.cpp,
// fused_avx512.cpp) include this, after every other header and, in the
// AVX files, after the `#pragma GCC target` line of their instruction
// set. Everything here sits in an anonymous namespace, so it carries the
// variant's target and internal linkage, and a variant's entry point is
// its only global symbol (scripts/check.sh stage 1 checks that with nm). A function with
// external linkage compiled under a variant's target — an inline
// function or a template instance, emitted as a weak symbol — may be the
// copy the linker keeps for every caller, and a baseline caller would
// then fault on a CPU without the variant's instructions.
//
// A lane type V holds V::kWidth consecutive slots, one cell per lane.
// Every arithmetic operation on it is the IEEE-754 double operation per
// lane, never a fused multiply-add, so a block computes exactly what
// kWidth scalar iterations would (the build passes -ffp-contract=off, so
// the compiler does not contract the scalar lanes either).
#pragma once

#include <cstddef>
#include <cstdint>

#include "mag/kernels/sweep.h"

namespace swsim::mag::kernels {
namespace {

// One cell at a time: the ranges shorter than a variant's lane width.
struct ScalarLane {
  static constexpr std::size_t kWidth = 1;
  double v;
  static ScalarLane load(const double* p) { return {*p}; }
  static ScalarLane gather(const double* p, const std::uint32_t* idx) {
    return {p[*idx]};
  }
  void store(double* p) const { *p = v; }
  static ScalarLane set1(double s) { return {s}; }
  static ScalarLane zero() { return {0.0}; }
  // h + d where the gate is nonzero; h's bits untouched elsewhere.
  static ScalarLane gated_add(ScalarLane h, ScalarLane gate, ScalarLane d) {
    return gate.v != 0.0 ? ScalarLane{h.v + d.v} : h;
  }
};

ScalarLane operator+(ScalarLane a, ScalarLane b) {
  return {a.v + b.v};
}
ScalarLane operator-(ScalarLane a, ScalarLane b) {
  return {a.v - b.v};
}
ScalarLane operator*(ScalarLane a, ScalarLane b) {
  return {a.v * b.v};
}

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

// The epilogue's stage sum for the block at i: c[0]*k[0] + ... +
// c[nk-1]*k[nk-1] + c[nk]*r, left-associated as combine_range sums it.
template <class V>
inline V stage_sum(const FusedSweep& s, const double* const* k, V r,
                   std::size_t i) {
  if (s.nk == 0) return r * V::set1(s.c[0]);
  V a = V::load(k[0] + i) * V::set1(s.c[0]);
  for (std::size_t j = 1; j < s.nk; ++j) {
    a = a + V::load(k[j] + i) * V::set1(s.c[j]);
  }
  return a + r * V::set1(s.c[s.nk]);
}

// The one per-cell op sequence of the kernel layer: for the V::kWidth
// slots starting at i, accumulate every op in term order, then the rhs,
// then, if the sweep has one, the epilogue from the rhs in registers.
// Exchange gathers m at the six neighbour slots of the plan's table
// (-x,+x,-y,+y,-z,+z); an absent neighbour is the slot itself, whose
// (m[i] - m[i]) * w is an exact +0.0, bit-identical to the reference
// skipping it. An antenna op adds its drive where its gate is 1.0.
template <class V>
inline void fused_block(const FusedSweep& s, std::size_t i) {
  const V mix = V::load(s.mx + i);
  const V miy = V::load(s.my + i);
  const V miz = V::load(s.mz + i);
  V hx = V::zero(), hy = V::zero(), hz = V::zero();
  for (std::size_t o = 0; o < s.nops; ++o) {
    const EvalOp& op = s.ops[o];
    switch (op.kind) {
      case OpKind::kExchange: {
        V lx = V::zero(), ly = V::zero(), lz = V::zero();
        for (std::size_t a = 0; a < 3; ++a) {
          if (!s.axis_used[a]) continue;
          const V w = V::set1(s.inv_d2[a]);
          for (std::size_t k = 2 * a; k < 2 * a + 2; ++k) {
            const std::uint32_t* idx = s.nb + k * s.slots + i;
            lx = lx + (V::gather(s.mx, idx) - mix) * w;
            ly = ly + (V::gather(s.my, idx) - miy) * w;
            lz = lz + (V::gather(s.mz, idx) - miz) * w;
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
        hz = hz - V::load(s.ms + i) * miz;
        break;
      case OpKind::kUniformZeeman:
        hx = hx + V::set1(op.dx);
        hy = hy + V::set1(op.dy);
        hz = hz + V::set1(op.dz);
        break;
      case OpKind::kAntenna:
        if (!op.skip) {
          const V g = V::load(op.gate + i);
          hx = V::gated_add(hx, g, V::set1(op.dx));
          hy = V::gated_add(hy, g, V::set1(op.dy));
          hz = V::gated_add(hz, g, V::set1(op.dz));
        }
        break;
    }
  }
  V rx, ry, rz;
  llg_lanes(mix, miy, miz, hx, hy, hz, V::load(s.alpha + i),
            V::load(s.llg_pref + i), rx, ry, rz);
  rx.store(s.ox + i);
  ry.store(s.oy + i);
  rz.store(s.oz + i);
  if (s.tx) {
    const V h = V::set1(s.h);
    (V::load(s.bx + i) + stage_sum(s, s.kx, rx, i) * h).store(s.tx + i);
    (V::load(s.by + i) + stage_sum(s, s.ky, ry, i) * h).store(s.ty + i);
    (V::load(s.bz + i) + stage_sum(s, s.kz, rz, i) * h).store(s.tz + i);
  }
}

// SweepVariant::fused for lane type V: whole V-wide blocks over [b, e),
// the last one overlapping back to e - V::kWidth, so it stays inside the
// range (its slots are written twice, with the same bytes: no output
// aliases an input); a range shorter than a block runs one cell at a
// time.
template <class V>
void fused_range(const FusedSweep& s, std::size_t b, std::size_t e) {
  if (e - b < V::kWidth) {
    for (std::size_t i = b; i < e; ++i) fused_block<ScalarLane>(s, i);
    return;
  }
  std::size_t i = b;
  for (; i + V::kWidth <= e; i += V::kWidth) fused_block<V>(s, i);
  if (i < e) fused_block<V>(s, e - V::kWidth);
}

}  // namespace
}  // namespace swsim::mag::kernels
