// A field term lowered to plain data.
//
// The fused SoA sweep (sweep.h) cannot call FieldTerm::accumulate — a
// virtual call per term per cell, branching on the mask, is exactly the
// overhead the kernel layer removes. Instead each fusable term *compiles*
// itself into a TermOp: an op kind plus the handful of scalars the sweep
// needs (prefactors, axes, drive parameters, a precomputed region index
// list). Terms that have no kernel form — the stochastic thermal field,
// the non-local FFT demag — refuse to compile and the solver keeps the
// scalar reference path for the whole term set.
//
// The bit-exactness contract (docs/PERFORMANCE.md): executing the ops in
// term order per cell reproduces the reference path's per-cell floating-
// point operation sequence exactly, so kernel and reference output are
// byte-identical.
#pragma once

#include <cstdint>
#include <vector>

namespace swsim::mag {
class Envelope;
}

namespace swsim::mag::kernels {

enum class OpKind : std::uint8_t {
  kExchange,       // six-neighbour Laplacian via the plan's neighbour table
  kAnisotropy,     // h += pref * (m . axis) * axis
  kThinFilmDemag,  // h.z -= ms(i) * m.z  (per-cell Ms)
  kUniformZeeman,  // h += H_applied
  kAntenna,        // h += dir * (A * env(t) * sin(2 pi f t + phase)) on cells
};

struct TermOp {
  OpKind kind{};

  double pref = 0.0;              // exchange / anisotropy prefactor
  double ax = 0, ay = 0, az = 0;  // anisotropy axis or antenna direction
  double hx = 0, hy = 0, hz = 0;  // uniform Zeeman field [A/m]

  double amplitude = 0.0;  // antenna drive [A/m]
  double frequency = 0.0;  // [Hz]
  double phase = 0.0;      // [rad]
  const Envelope* envelope = nullptr;  // owned by the term, outlives the plan

  // Antenna only: region ∧ system mask, ascending, so the drive touches
  // exactly the cells it powers instead of scanning the grid.
  // compile_kernel fills flat grid indices; build_plan rewrites them to
  // slots.
  std::vector<std::uint32_t> cells;

  // Antenna only, filled by build_plan: a per-slot 1.0/0.0 coverage
  // vector. The SIMD fused sweep turns the
  // per-cell region branch into a lane select against this array, which
  // keeps whole-vector blocks branchless while leaving undriven lanes'
  // field bits untouched.
  std::vector<double> gate;
};

}  // namespace swsim::mag::kernels
