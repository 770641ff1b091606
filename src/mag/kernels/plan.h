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
//   * the interior-run table: maximal slot ranges of one x-row whose ±x
//     neighbours are active and whose in-grid ±y/±z neighbours are too.
//     Inside a run the ±x neighbours sit at slot ±1, and the ±y/±z
//     neighbours of the whole run are contiguous too, at four per-run
//     slot offsets (0 where that neighbour lies outside the grid). Runs
//     take the SIMD blocks; every other slot is an "edge" slot, one cell
//     at a time;
//   * the edge table: six neighbour slot offsets per edge slot, in the
//     reference path's -x,+x,-y,+y,-z,+z order. An absent or vacuum
//     neighbour gets offset 0, the self term, which contributes an exact
//     +0.0, bit-identical to skipping the neighbour. Weights are the three
//     per-axis 1/d^2 constants, not per-neighbour loads. Runs and edge
//     slots execute the one per-cell operation sequence (sweep.cpp's
//     fused_block), so the split is invisible in the output bytes;
//   * the lowered TermOps in term order, each antenna with a per-slot
//     coverage gate, and per-run coverage bits (bit a = the a-th antenna
//     op drives a cell of the run) so runs outside every antenna region
//     skip the term entirely.
//
// build_plan returns nullptr when any term refuses to compile, or when
// the set holds more than 8 antennas (one coverage bit each); the solver
// then stays on the scalar reference path for this term set.
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

  // Interior runs: [b, e) slot ranges of one x-row (without exchange, the
  // only op that reaches off-cell, any active cell qualifies). `off` holds
  // the slot offsets of the -y, +y, -z, +z neighbours (the same for every
  // slot of the run; 0 on an unused axis, outside the grid, and without
  // exchange). `antenna` has bit a set when the a-th antenna op drives at
  // least one cell of the run.
  struct Run {
    std::uint32_t b = 0;
    std::uint32_t e = 0;
    std::ptrdiff_t off[4] = {0, 0, 0, 0};
    std::uint8_t antenna = 0;
  };
  std::vector<Run> runs;
  std::vector<std::uint64_t> run_prefix;  // runs.size()+1 cumulative lengths
  std::size_t interior_total = 0;         // slots covered by runs
  std::vector<std::uint32_t> edge_slots;  // slots not in any run, ascending
  std::vector<std::ptrdiff_t> edge_off;   // 6 offsets per edge slot

  std::vector<TermOp> ops;  // term order

  bool matches(const System& sys,
               const std::vector<std::unique_ptr<FieldTerm>>& terms) const;
};

std::unique_ptr<KernelPlan> build_plan(
    const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms);

}  // namespace swsim::mag::kernels
