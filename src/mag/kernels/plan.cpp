#include "mag/kernels/plan.h"

#include <algorithm>

#include "math/constants.h"
#include "obs/metrics.h"

namespace swsim::mag::kernels {

using swsim::math::kGamma;
using swsim::math::kMu0;

namespace {

// Runs shorter than this go to the edge path instead: a handful of scalar
// cells costs less than another run-table entry and dispatch.
constexpr std::size_t kMinRun = 4;

}  // namespace

bool KernelPlan::matches(
    const System& s,
    const std::vector<std::unique_ptr<FieldTerm>>& terms) const {
  if (sys != &s || revision != s.revision()) return false;
  if (active.get() != &s.active_cells()) return false;
  if (terms.size() != term_sig.size()) return false;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (terms[i].get() != term_sig[i]) return false;
  }
  return true;
}

std::unique_ptr<KernelPlan> build_plan(
    const System& sys, const std::vector<std::unique_ptr<FieldTerm>>& terms) {
  auto plan = std::make_unique<KernelPlan>();

  // Lower the terms first: the common rejection (a thermal or Newell demag
  // term in the set) must cost O(terms), not O(cells).
  plan->ops.reserve(terms.size());
  std::size_t antennas = 0;
  for (const auto& term : terms) {
    TermOp op;
    if (!term->compile_kernel(sys, op)) return nullptr;
    op.name = term->name();
    if (op.kind == OpKind::kExchange) plan->has_exchange = true;
    if (op.kind == OpKind::kAntenna) ++antennas;
    plan->term_sig.push_back(term.get());
    plan->ops.push_back(std::move(op));
  }

  plan->sys = &sys;
  plan->revision = sys.revision();
  plan->active = sys.active_cells_handle();
  const std::vector<std::uint32_t>& active = *plan->active;
  const std::size_t slots = active.size();

  plan->alpha.resize(slots);
  plan->llg_pref.resize(slots);
  plan->ms.resize(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t i = active[s];
    const double alpha = sys.alpha_at(i);
    plan->alpha[s] = alpha;
    // Exactly the reference path's expression, precomputed per cell.
    plan->llg_pref[s] = -kGamma * kMu0 / (1.0 + alpha * alpha);
    plan->ms[s] = sys.ms_at(i);
  }

  const auto& g = sys.grid();
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  plan->inv_d2[0] = 1.0 / (g.dx() * g.dx());
  plan->inv_d2[1] = 1.0 / (g.dy() * g.dy());
  plan->inv_d2[2] = 1.0 / (g.dz() * g.dz());
  plan->axis_used[0] = nx > 1;
  plan->axis_used[1] = ny > 1;
  plan->axis_used[2] = nz > 1;

  // slot_of[i]: flat cell -> slot (valid on the mask). A build-time table
  // only; nothing the steps touch is grid-sized.
  const auto& mask = sys.mask();
  std::vector<std::uint32_t> slot_of(g.cell_count(), 0);
  for (std::size_t s = 0; s < slots; ++s) {
    slot_of[active[s]] = static_cast<std::uint32_t>(s);
  }

  if (plan->has_exchange) {
    // Six neighbour slots per slot, reference traversal order
    // -x,+x,-y,+y,-z,+z, for the edge/term-sweep paths. Absent or vacuum
    // neighbours get the slot itself: (m[s] - m[s]) * w is an exact +0.0
    // contribution, bit-identical to the reference skipping it.
    plan->nb.resize(6 * slots);
    for (std::size_t s = 0; s < slots; ++s) {
      const auto xyz = g.unindex(active[s]);
      const std::size_t x = xyz.x, y = xyz.y, z = xyz.z;
      std::uint32_t* nbp = &plan->nb[6 * s];
      for (int k = 0; k < 6; ++k) nbp[k] = static_cast<std::uint32_t>(s);
      auto set = [&](int k, std::size_t j) {
        if (mask[j]) nbp[k] = slot_of[j];
      };
      if (x > 0) set(0, g.index(x - 1, y, z));
      if (x + 1 < nx) set(1, g.index(x + 1, y, z));
      if (y > 0) set(2, g.index(x, y - 1, z));
      if (y + 1 < ny) set(3, g.index(x, y + 1, z));
      if (z > 0) set(4, g.index(x, y, z - 1));
      if (z + 1 < nz) set(5, g.index(x, y, z + 1));
    }
  }

  plan->fused_ok = antennas <= 8;

  // Interior runs: per x-row, maximal spans of active cells whose
  // existing-axis neighbours are all active (only the exchange op reaches
  // off-cell, so without one every active cell qualifies). Requires x to
  // be the fastest-varying axis: then a span is a slot range, and so is
  // each of its ±y/±z neighbour spans, at a fixed offset from it. On any
  // other layout everything stays on the (still exact) edge path.
  const auto flat_step = [&](std::size_t x, std::size_t y, std::size_t z) {
    return static_cast<std::ptrdiff_t>(g.index(x, y, z) - g.index(0, 0, 0));
  };
  std::vector<std::uint8_t> covered(slots, 0);
  if (plan->fused_ok && (nx == 1 || flat_step(1, 0, 0) == 1)) {
    const std::ptrdiff_t sy = ny > 1 ? flat_step(0, 1, 0) : 0;
    const std::ptrdiff_t sz = nz > 1 ? flat_step(0, 0, 1) : 0;
    for (std::size_t z = 0; z < nz; ++z) {
      for (std::size_t y = 0; y < ny; ++y) {
        std::size_t run_b = 0, run_len = 0;  // flat start, length
        auto close = [&] {
          if (run_len >= kMinRun) {
            KernelPlan::Run run;
            run.b = slot_of[run_b];
            run.e = run.b + static_cast<std::uint32_t>(run_len);
            // Only exchange reads the offsets, and only with exchange are
            // a run's ±y/±z neighbours known to be active cells of the
            // grid: without it, runs also lie on the border rows/layers.
            if (plan->has_exchange) {
              const std::ptrdiff_t b = run.b;
              if (sy != 0) {
                run.off[0] = slot_of[run_b - sy] - b;
                run.off[1] = slot_of[run_b + sy] - b;
              }
              if (sz != 0) {
                run.off[2] = slot_of[run_b - sz] - b;
                run.off[3] = slot_of[run_b + sz] - b;
              }
            }
            plan->runs.push_back(run);
            std::fill(covered.begin() + run.b, covered.begin() + run.e, 1);
          }
          run_len = 0;
        };
        for (std::size_t x = 0; x < nx; ++x) {
          const std::size_t i = g.index(x, y, z);
          bool ok = mask[i];
          if (ok && plan->has_exchange) {
            if (nx > 1) {
              ok = x > 0 && x + 1 < nx && mask[i - 1] && mask[i + 1];
            }
            if (ok && ny > 1) {
              ok = y > 0 && y + 1 < ny && mask[i - sy] && mask[i + sy];
            }
            if (ok && nz > 1) {
              ok = z > 0 && z + 1 < nz && mask[i - sz] && mask[i + sz];
            }
          }
          if (ok) {
            if (run_len == 0) run_b = i;
            ++run_len;
          } else {
            close();
          }
        }
        close();
      }
    }
  }
  plan->run_prefix.resize(plan->runs.size() + 1);
  plan->run_prefix[0] = 0;
  for (std::size_t r = 0; r < plan->runs.size(); ++r) {
    plan->run_prefix[r + 1] =
        plan->run_prefix[r] + (plan->runs[r].e - plan->runs[r].b);
  }
  plan->interior_total = plan->run_prefix.back();
  plan->edge_slots.reserve(slots - plan->interior_total);
  for (std::size_t s = 0; s < slots; ++s) {
    if (!covered[s]) plan->edge_slots.push_back(static_cast<std::uint32_t>(s));
  }

  // Antenna cell lists arrive as flat indices of region ∧ mask; the sweeps
  // address slots.
  for (TermOp& op : plan->ops) {
    if (op.kind != OpKind::kAntenna) continue;
    for (std::uint32_t& c : op.cells) c = slot_of[c];
  }

  if (plan->fused_ok && antennas > 0) {
    plan->antenna_bits.assign(slots, 0);
    std::uint8_t bit = 1;
    for (TermOp& op : plan->ops) {
      if (op.kind != OpKind::kAntenna) continue;
      op.gate.assign(slots, 0.0);
      for (const std::uint32_t s : op.cells) {
        plan->antenna_bits[s] |= bit;
        op.gate[s] = 1.0;
      }
      for (auto& run : plan->runs) {
        for (std::size_t s = run.b; s < run.e; ++s) {
          if (op.gate[s] != 0.0) {
            run.antenna |= bit;
            break;
          }
        }
      }
      bit = static_cast<std::uint8_t>(bit << 1);
    }
  }

  plan->op_us.reserve(plan->ops.size());
  for (const TermOp& op : plan->ops) {
    plan->op_us.push_back(&obs::MetricsRegistry::global().counter(
        "mag.term." + op.name + ".us"));
  }

  return plan;
}

}  // namespace swsim::mag::kernels
