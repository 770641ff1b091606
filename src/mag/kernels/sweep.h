// The vectorizable inner loops of the kernel path.
//
// Every function here is written against the bit-exactness contract: for
// each magnetic cell it performs the same floating-point operations, in
// the same order, with the same association, as the scalar reference path
// in llg.cpp / the field terms. SIMD lanes hold different cells, never
// different terms of one cell's accumulation, so vectorization preserves
// the per-cell operation sequence exactly. See docs/PERFORMANCE.md for the
// argument; tests/test_mag_kernels.cpp holds it to byte identity.
//
// Every buffer is indexed by slot (the plan's active-cell order), and all
// slot ranges are half-open. Callers parallelize by chunking [0, slots)
// with fixed grain — the loops only ever write slots inside their own
// range, so any chunk schedule produces identical bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mag/kernels/plan.h"
#include "mag/kernels/soa.h"

namespace swsim::mag::kernels {

// A TermOp resolved at one evaluation time t: the antenna drive collapses
// to one precomputed vector (or a skip flag while its envelope is zero).
struct EvalOp {
  OpKind kind{};
  double pref = 0.0;              // exchange / anisotropy
  double ax = 0, ay = 0, az = 0;  // anisotropy axis
  double dx = 0, dy = 0, dz = 0;  // zeeman field or antenna drive at t
  bool skip = false;              // antenna with env(t) == 0
  const double* gate = nullptr;   // antenna 1.0/0.0 per slot
};

// Resolves the plan's ops at time t into `out` (cleared first).
void resolve_ops(const KernelPlan& p, double t, std::vector<EvalOp>& out);

// out = base + k * s, slot range [b, e). Matches "base[i] + s_expr * k[i]"
// where the reference computed the double s first (s_expr collapses to s).
void axpy(SoaVec& out, const SoaVec& base, double s, const SoaVec& k,
          std::size_t b, std::size_t e);

// out = base + (c0*k0 + c1*k1 + ...) * h, slot range [b, e), inner sum
// left-associated — the shape of every multi-k stage combination in the
// reference steppers (a coefficient of exactly 1.0 reproduces a bare
// "k[i]" operand: x * 1.0 == x bitwise).
template <int N>
void combine_range(SoaVec& out, const SoaVec& base, double h,
                   const double (&c)[N], const SoaVec* const (&k)[N],
                   std::size_t b, std::size_t e) {
  double* ox = out.x.data();
  double* oy = out.y.data();
  double* oz = out.z.data();
  const double* bx = base.x.data();
  const double* by = base.y.data();
  const double* bz = base.z.data();
  for (std::size_t i = b; i < e; ++i) {
    double ax = k[0]->x[i] * c[0];
    double ay = k[0]->y[i] * c[0];
    double az = k[0]->z[i] * c[0];
    for (int j = 1; j < N; ++j) {  // N is a constant: fully unrolled
      ax += k[j]->x[i] * c[j];
      ay += k[j]->y[i] * c[j];
      az += k[j]->z[i] * c[j];
    }
    ox[i] = bx[i] + ax * h;
    oy[i] = by[i] + ay * h;
    oz[i] = bz[i] + az * h;
  }
}

// max over slots [b, e) of |h * (c0*k0 + c1*k1 + ... + c4*k4)| — the
// RKF45 embedded-error reduction. NaN norms are skipped exactly as the
// reference's std::max does, so the result is chunk-order independent.
double err_max_range(double h, const double (&c)[5],
                     const SoaVec* const (&k)[5], std::size_t b,
                     std::size_t e);

// One fused field + LLG-rhs evaluation as plain pointers: the state m,
// its output dmdt (never the same buffer), the plan's tables and the
// resolved ops. The variant objects see nothing but this.
struct FusedSweep {
  const double* mx;
  const double* my;
  const double* mz;
  double* ox;
  double* oy;
  double* oz;
  const std::uint32_t* nb;  // KernelPlan::nb, neighbour-major
  std::size_t slots;        // its row length
  const double* alpha;
  const double* llg_pref;
  const double* ms;
  double inv_d2[3];
  bool axis_used[3];
  const EvalOp* ops;
  std::size_t nops;
};

FusedSweep make_sweep(const KernelPlan& p, const SoaVec& m,
                      const std::vector<EvalOp>& ops, SoaVec& dmdt);

// One compiled lane width W of the fused sweep (2, 4 or 8 doubles).
// fused(s, b, e) runs the one per-cell op sequence — every op in term
// order, then the rhs — over slots [b, e), writing dmdt there only. A
// range of at least W slots runs whole blocks only, the last one
// overlapping back to e - W (dmdt is a pure function of m, so the overlap
// rewrites the same bytes); a shorter range runs one cell at a time.
struct SweepVariant {
  const char* name;     // "sse2", "avx2", "avx512"
  bool (*supported)();  // the host CPU runs it
  void (*fused)(const FusedSweep& s, std::size_t b, std::size_t e);
};

// Every compiled variant, narrowest first. The first, SSE2, is the
// x86-64 baseline and runs everywhere.
std::span<const SweepVariant> sweep_variants();

// The widest supported variant, chosen once per process.
const SweepVariant& sweep_variant();

}  // namespace swsim::mag::kernels
