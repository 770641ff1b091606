#include "mag/kernels/plan.h"

#include <limits>

#include "math/constants.h"

namespace swsim::mag::kernels {

using swsim::math::kGamma;
using swsim::math::kMu0;

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
  bool has_exchange = false;
  for (const auto& term : terms) {
    TermOp op;
    if (!term->compile_kernel(sys, op)) return nullptr;
    if (op.kind == OpKind::kExchange) has_exchange = true;
    plan->term_sig.push_back(term.get());
    plan->ops.push_back(std::move(op));
  }

  const std::vector<std::uint32_t>& active = sys.active_cells();
  const std::size_t slots = active.size();
  // The SIMD gathers index with signed 32-bit lanes.
  if (slots > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    return nullptr;
  }

  plan->sys = &sys;
  plan->revision = sys.revision();
  plan->active = sys.active_cells_handle();

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

  // The neighbour table. The grid is x-fastest, so the flat strides are
  // 1, nx, nx*ny. Without exchange no op reads it, and every entry stays
  // the slot itself.
  plan->nb.resize(6 * slots);
  const std::size_t dim[3] = {nx, ny, nz};
  const std::size_t stride[3] = {1, nx, nx * ny};
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t i = active[s];
    const auto c = g.unindex(i);
    const std::size_t pos[3] = {c.x, c.y, c.z};
    for (int k = 0; k < 6; ++k) {
      std::uint32_t n = static_cast<std::uint32_t>(s);
      const int a = k >> 1;
      const bool up = (k & 1) != 0;
      if (has_exchange && !(up ? pos[a] + 1 == dim[a] : pos[a] == 0)) {
        const std::size_t j = up ? i + stride[a] : i - stride[a];
        if (mask[j]) n = slot_of[j];
      }
      plan->nb[static_cast<std::size_t>(k) * slots + s] = n;
    }
  }

  // Antenna cell lists arrive as flat indices of region ∧ mask; the plan
  // rewrites them to slots and sets each slot's gate.
  for (TermOp& op : plan->ops) {
    if (op.kind != OpKind::kAntenna) continue;
    op.gate.assign(slots, 0.0);
    for (std::uint32_t& c : op.cells) {
      c = slot_of[c];
      op.gate[c] = 1.0;
    }
  }

  return plan;
}

}  // namespace swsim::mag::kernels
