// The kernel plan: everything about a (System, term set) pair that can be
// precomputed once and reused every step.
//
// Every per-cell table is indexed by *slot*: slot s is the s-th entry of
// the System's active-cell list (magnetic cells, ascending flat index),
// so nothing in the plan or the solve buffers is sized by the bounding
// box, and no step visits a vacuum cell.
//
//   * per-slot alpha, the LLG prefactor -gamma mu0/(1+alpha^2), and the
//     local Ms (for the thin-film demag op);
//   * the neighbour table: for each of the six neighbours, in the
//     reference path's -x,+x,-y,+y,-z,+z order, one slot per slot. It is
//     stored transposed (neighbour-major), so a block of consecutive
//     slots finds its k-th neighbours' slots side by side and reads them
//     with one gather. An absent neighbour (vacuum, outside the grid, or
//     any neighbour when the set has no exchange) holds the slot itself:
//     its (m[s] - m[s]) * w is an exact +0.0, bit-identical to the
//     reference skipping it. Weights are the three per-axis 1/d^2
//     constants, not per-neighbour loads;
//   * the lowered TermOps in term order, each antenna with a per-slot
//     coverage gate.
//
// Every slot runs the one per-cell operation sequence (sweep.h's fused
// sweep) at the host's widest lane width, so nothing in the plan
// distinguishes interior from border cells.
//
// build_plan returns nullptr when any term refuses to compile (the solver
// then stays on the scalar reference path for this term set), or when
// the active cells outnumber the hardware gathers' signed 32-bit indices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mag/field_term.h"
#include "mag/kernels/term_op.h"
#include "mag/system.h"

namespace swsim::mag::kernels {

struct KernelPlan {
  // Staleness signature. The System address plus its mutation revision
  // catches set_ms_scale/set_alpha_field between steps. Holding the
  // System's active-cell list pins its identity: a System recreated at
  // the same address has a list of its own (unless it is a copy, whose
  // mask is the same).
  const System* sys = nullptr;
  std::uint64_t revision = 0;
  std::vector<const FieldTerm*> term_sig;

  // The slot order: slot s holds flat cell (*active)[s].
  std::shared_ptr<const std::vector<std::uint32_t>> active;
  std::size_t slots() const { return active->size(); }
  std::vector<double> alpha;           // per slot
  std::vector<double> llg_pref;        // per slot
  std::vector<double> ms;              // per slot

  double inv_d2[3] = {0.0, 0.0, 0.0};  // per-axis 1/dx^2, 1/dy^2, 1/dz^2
  bool axis_used[3] = {false, false, false};  // grid dimension > 1

  // nb[k * slots() + s]: the slot of slot s's k-th neighbour
  // (-x,+x,-y,+y,-z,+z), or s itself where that neighbour is absent.
  std::vector<std::uint32_t> nb;

  std::vector<TermOp> ops;  // term order

  bool matches(const System& sys,
               const std::vector<std::unique_ptr<FieldTerm>>& terms) const;
};

std::unique_ptr<KernelPlan> build_plan(
    const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms);

}  // namespace swsim::mag::kernels
