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
//   * the exchange neighbour table for edge slots: six slot indices per
//     slot in the reference path's -x,+x,-y,+y,-z,+z order, with the
//     slot's own index for absent/vacuum neighbours (the self term
//     contributes an exact +0.0, bit-identical to skipping the
//     neighbour); weights are the three per-axis 1/d^2 constants, not
//     per-neighbour loads;
//   * the interior-run table: maximal slot ranges of one x-row whose
//     every existing-axis neighbour is active. Inside a run the ±x
//     neighbours sit at slot ±1, and the ±y/±z neighbours of the whole
//     run are contiguous too, at four per-run slot offsets. Interior
//     slots take the fused SIMD sweep (direct offset addressing, no
//     tables); everything else is an "edge" slot on the scalar table
//     path. Both paths execute the identical per-cell operation
//     sequence, so the split is invisible in the output bytes;
//   * the lowered TermOps in term order (antenna cell lists in slots),
//     plus per-op metric counters for the sampled "mag.term.<name>.us"
//     attribution;
//   * per-slot antenna coverage bitmask (bit a = cell driven by the a-th
//     antenna op) for the edge path, and per-run coverage bits so runs
//     outside every antenna region skip the term entirely.
//
// build_plan returns nullptr when any term refuses to compile; the solver
// then stays on the scalar reference path for this term set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mag/field_term.h"
#include "mag/kernels/term_op.h"
#include "mag/system.h"

namespace swsim::obs {
class Counter;
}

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

  bool has_exchange = false;
  std::vector<std::uint32_t> nb;       // 6 slots per slot (edge/term path)
  double inv_d2[3] = {0.0, 0.0, 0.0};  // per-axis 1/dx^2, 1/dy^2, 1/dz^2
  bool axis_used[3] = {false, false, false};  // grid dimension > 1

  // Interior runs: [b, e) slot ranges of one x-row, every cell with all
  // existing-axis neighbours active (without exchange, the only op that
  // reaches off-cell, any active cell qualifies). `off` holds the slot
  // offsets of the -y, +y, -z, +z neighbours (the same for every slot of
  // the run; 0 on an unused axis and without exchange). `antenna` has
  // bit a set when the a-th antenna op drives at least one cell of the
  // run.
  struct Run {
    std::uint32_t b = 0;
    std::uint32_t e = 0;
    std::ptrdiff_t off[4] = {0, 0, 0, 0};
    std::uint8_t antenna = 0;
  };
  std::vector<Run> runs;
  std::vector<std::uint64_t> run_prefix;  // runs.size()+1 cumulative lengths
  std::size_t interior_total = 0;         // slots covered by runs
  std::vector<std::uint32_t> edge_slots;  // slots not in any run

  std::vector<TermOp> ops;             // term order
  std::vector<obs::Counter*> op_us;    // "mag.term.<name>.us", per op

  // Fused-sweep antenna coverage; valid iff fused_ok (at most 8 antennas,
  // one bit each). With more antennas the context falls back to per-term
  // kernel sweeps, which are still bit-exact and index-list driven.
  std::vector<std::uint8_t> antenna_bits;
  bool fused_ok = false;

  bool matches(const System& sys,
               const std::vector<std::unique_ptr<FieldTerm>>& terms) const;
};

std::unique_ptr<KernelPlan> build_plan(
    const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms);

}  // namespace swsim::mag::kernels
