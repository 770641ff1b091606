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
// Every buffer is indexed by slot (the plan's active-cell order). All
// ranges are half-open: "slot" ranges index the buffers directly, "edge"
// ranges index plan.edge_slots. Callers parallelize by chunking these
// ranges with fixed grain — the loops only ever write slots inside their
// own range, so any chunk schedule produces identical bytes.
#pragma once

#include <cstddef>
#include <cstdint>
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
  std::uint8_t bit = 0;           // antenna bit in KernelPlan::Run::antenna
  const std::vector<double>* gate = nullptr;  // antenna 1.0/0.0 per slot
};

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

// Fused field + LLG-rhs sweep over slots [sb, se) of one interior run:
// per cell, accumulate every op's field in term order into registers, then
// apply the LLG right-hand side, writing dmdt at that slot only. Interior
// slots address exchange neighbours at ±1 (x) and the run's ±y/±z slot
// offsets directly and process SIMD-width blocks of cells at once. Ops
// whose bit is clear in the run's antenna coverage are skipped for the
// whole range (identical to the reference never touching those cells).
void fused_run(const KernelPlan& p, const SoaVec& m,
               const std::vector<EvalOp>& ops, SoaVec& dmdt,
               const KernelPlan::Run& run, std::size_t sb, std::size_t se);

// The same per-cell block, one cell at a time, for edge slots [eb, ee)
// (indices into plan.edge_slots): exchange reads each slot's six entries
// of plan.edge_off, and every antenna op consults its gate.
void fused_edge(const KernelPlan& p, const SoaVec& m,
                const std::vector<EvalOp>& ops, SoaVec& dmdt, std::size_t eb,
                std::size_t ee);

}  // namespace swsim::mag::kernels
