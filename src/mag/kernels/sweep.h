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
#include <initializer_list>
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

// out = base + (c0*k0 + c1*k1 + ...) * h, slot range [b, e), inner sum
// left-associated — the shape of every stage combination in the
// reference steppers (a coefficient of exactly 1.0 reproduces a bare
// "k[i]" operand: x * 1.0 == x bitwise). The fused sweep's epilogue
// computes the same expression; this loop remains for RKF45's accepted
// update, which waits for the error over the whole field.
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

// Renormalizes slots [b, e) of m in place to unit length, exactly
// math::normalized per cell: n = sqrt(x*x + y*y + z*z), then each
// component divided by n where n > 0, and left as it is otherwise (zero
// and NaN cells). SSE2 lanes, one cell at a time for an odd last slot.
void renormalize_range(SoaVec& m, std::size_t b, std::size_t e);

// A stage combine that rides in the fused sweep: once a block's dm/dt r
// is in registers, the sweep also writes
//   out = base + (c[0]*k[0] + ... + c[n-1]*k[n-1] + c[n]*r) * h,
// combine_range's expression with the fresh r as the last k, which is
// where every stage of the reference steppers puts it. An axpy is the
// n = 0 case with c = {1.0}. `out` may alias neither the sweep's state
// (other blocks still read it) nor `base` or a k: the last block of a
// range overlaps back to e - W and computes its slots again, from inputs
// the first pass must not have changed.
struct Epilogue {
  static constexpr std::size_t kMaxK = 4;
  SoaVec* out = nullptr;  // nullptr: the sweep writes dm/dt only
  const SoaVec* base = nullptr;
  double h = 0.0;
  std::size_t n = 0;
  double c[kMaxK + 1] = {};
  const SoaVec* k[kMaxK] = {};
};

// The epilogue out = base + (c[0]*k[0] + ... + c[n]*dm/dt) * h, with the
// n = k.size() earlier stages; throws std::invalid_argument unless
// c.size() == n + 1 <= kMaxK + 1.
Epilogue stage(SoaVec& out, const SoaVec& base, double h,
               std::initializer_list<double> c,
               std::initializer_list<const SoaVec*> k);

// One fused field + LLG-rhs evaluation as plain pointers: the state m,
// its output dmdt (never the same buffer), the plan's tables, the
// resolved ops and the optional epilogue. The variant objects see
// nothing but this.
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
  // The epilogue (tx == nullptr: none), as Epilogue above.
  double* tx = nullptr;
  double* ty = nullptr;
  double* tz = nullptr;
  const double* bx = nullptr;
  const double* by = nullptr;
  const double* bz = nullptr;
  const double* kx[Epilogue::kMaxK] = {};
  const double* ky[Epilogue::kMaxK] = {};
  const double* kz[Epilogue::kMaxK] = {};
  double c[Epilogue::kMaxK + 1] = {};
  std::size_t nk = 0;
  double h = 0.0;
};

FusedSweep make_sweep(const KernelPlan& p, const SoaVec& m,
                      const std::vector<EvalOp>& ops, SoaVec& dmdt,
                      const Epilogue& epi = {});

// One compiled lane width W of the fused sweep (2, 4 or 8 doubles).
// fused(s, b, e) runs the one per-cell op sequence — every op in term
// order, then the rhs, then the epilogue if any — over slots [b, e),
// writing dmdt (and the epilogue's out) there only. A range of at least
// W slots runs whole blocks only, the last one overlapping back to
// e - W (dmdt is a pure function of m, and the epilogue's of m, base and
// the earlier ks, so the overlap rewrites the same bytes); a shorter
// range runs one cell at a time.
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
