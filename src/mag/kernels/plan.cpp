#include "mag/kernels/plan.h"

#include <algorithm>

#include "math/constants.h"

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
  bool has_exchange = false;
  std::size_t antennas = 0;
  for (const auto& term : terms) {
    TermOp op;
    if (!term->compile_kernel(sys, op)) return nullptr;
    if (op.kind == OpKind::kExchange) has_exchange = true;
    if (op.kind == OpKind::kAntenna) ++antennas;
    plan->term_sig.push_back(term.get());
    plan->ops.push_back(std::move(op));
  }
  // A run's antenna coverage is one bit per antenna op.
  if (antennas > 8) return nullptr;

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

  // Slot offset from active cell i to its k-th neighbour (-x,+x,-y,+y,
  // -z,+z): 0, the self term, when that neighbour is outside the grid or
  // vacuum. The grid is x-fastest, so the flat strides are 1, nx, nx*ny.
  const std::size_t sy = nx, sz = nx * ny;
  const std::size_t dim[3] = {nx, ny, nz};
  const std::size_t stride[3] = {1, sy, sz};
  const auto nb_off = [&](std::size_t i, int k) -> std::ptrdiff_t {
    const auto c = g.unindex(i);
    const std::size_t pos[3] = {c.x, c.y, c.z};
    const int a = k >> 1;
    const bool up = (k & 1) != 0;
    if (up ? pos[a] + 1 == dim[a] : pos[a] == 0) return 0;
    const std::size_t j = up ? i + stride[a] : i - stride[a];
    if (!mask[j]) return 0;
    return static_cast<std::ptrdiff_t>(slot_of[j]) -
           static_cast<std::ptrdiff_t>(slot_of[i]);
  };

  // Interior runs: per x-row, maximal spans of active cells whose ±x
  // neighbours are active and whose ±y/±z neighbours are active or outside
  // the grid (only the exchange op reaches off-cell, so without one every
  // active cell qualifies). A span is a slot range, and so is each of its
  // ±y/±z neighbour spans, at a fixed offset from it.
  std::vector<std::uint8_t> covered(slots, 0);
  for (std::size_t z = 0; z < nz; ++z) {
    for (std::size_t y = 0; y < ny; ++y) {
      std::size_t run_b = 0, run_len = 0;  // flat start, length
      auto close = [&] {
        if (run_len >= kMinRun) {
          KernelPlan::Run run;
          run.b = slot_of[run_b];
          run.e = run.b + static_cast<std::uint32_t>(run_len);
          // Only exchange reads the offsets, and only with exchange are a
          // run's in-grid ±y/±z neighbours known to be active.
          if (has_exchange) {
            for (int k = 2; k < 6; ++k) run.off[k - 2] = nb_off(run_b, k);
          }
          plan->runs.push_back(run);
          std::fill(covered.begin() + run.b, covered.begin() + run.e, 1);
        }
        run_len = 0;
      };
      for (std::size_t x = 0; x < nx; ++x) {
        const std::size_t i = g.index(x, y, z);
        bool ok = mask[i];
        if (ok && has_exchange) {
          if (nx > 1) {
            ok = x > 0 && x + 1 < nx && mask[i - 1] && mask[i + 1];
          }
          if (ok && ny > 1) {
            ok = (y == 0 || mask[i - sy]) && (y + 1 == ny || mask[i + sy]);
          }
          if (ok && nz > 1) {
            ok = (z == 0 || mask[i - sz]) && (z + 1 == nz || mask[i + sz]);
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
  plan->run_prefix.resize(plan->runs.size() + 1);
  plan->run_prefix[0] = 0;
  for (std::size_t r = 0; r < plan->runs.size(); ++r) {
    plan->run_prefix[r + 1] =
        plan->run_prefix[r] + (plan->runs[r].e - plan->runs[r].b);
  }
  plan->interior_total = plan->run_prefix.back();
  plan->edge_slots.reserve(slots - plan->interior_total);
  plan->edge_off.reserve(6 * (slots - plan->interior_total));
  for (std::size_t s = 0; s < slots; ++s) {
    if (covered[s]) continue;
    plan->edge_slots.push_back(static_cast<std::uint32_t>(s));
    for (int k = 0; k < 6; ++k) plan->edge_off.push_back(nb_off(active[s], k));
  }

  // Antenna cell lists arrive as flat indices of region ∧ mask; the plan
  // rewrites them to slots and sets each slot's gate and each run's bit.
  std::uint8_t bit = 1;
  for (TermOp& op : plan->ops) {
    if (op.kind != OpKind::kAntenna) continue;
    op.gate.assign(slots, 0.0);
    for (std::uint32_t& c : op.cells) {
      c = slot_of[c];
      op.gate[c] = 1.0;
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

  return plan;
}

}  // namespace swsim::mag::kernels
