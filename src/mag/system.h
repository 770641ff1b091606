// The magnetic system: grid + geometry mask + material.
//
// Cells outside the mask are vacuum: their magnetization stays exactly zero
// and every field term skips them. A per-cell Ms scale field supports
// variability studies (thickness/density fluctuations) without a separate
// multi-material machinery.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mag/material.h"
#include "math/field.h"
#include "math/grid.h"

namespace swsim::mag {

using swsim::math::Grid;
using swsim::math::Mask;
using swsim::math::ScalarField;
using swsim::math::Vec3;
using swsim::math::VectorField;

class System {
 public:
  // A full-box system (all cells magnetic).
  System(const Grid& grid, const Material& material);
  // A masked system (waveguide geometry). Throws if the mask grid differs
  // or the mask is empty.
  System(const Grid& grid, const Material& material, const Mask& mask);

  const Grid& grid() const { return grid_; }
  const Material& material() const { return material_; }
  const Mask& mask() const { return mask_; }

  // Per-cell saturation-magnetization scale (default 1 inside the mask,
  // 0 outside). Used for variability injection.
  const ScalarField& ms_scale() const { return ms_scale_; }
  void set_ms_scale(const ScalarField& scale);

  // Local saturation magnetization of cell i [A/m].
  double ms_at(std::size_t i) const { return material_.ms * ms_scale_[i]; }

  // Per-cell Gilbert damping (default: the material value everywhere).
  // Spatially graded damping implements absorbing boundary layers — the
  // standard micromagnetic trick for suppressing end reflections in
  // waveguide simulations. Values must be in [material alpha, 1].
  const ScalarField& alpha() const { return alpha_; }
  void set_alpha_field(const ScalarField& alpha);
  double alpha_at(std::size_t i) const { return alpha_[i]; }

  // Mutation counter, bumped by every setter that changes per-cell data.
  // The kernel layer uses (address, revision) as a staleness signature for
  // its precomputed solve plans.
  std::uint64_t revision() const { return revision_; }

  std::size_t magnetic_cell_count() const { return active_->size(); }

  // The magnetic cells as ascending flat indices, built once at
  // construction: the solver's slot order, and the one list every per-step
  // walk over magnetic cells (renormalize, probes, the kernel plan) reads.
  const std::vector<std::uint32_t>& active_cells() const { return *active_; }
  // The same list as a shared handle. Copies of a System share it, and a
  // holder keeps its address from being reused, so a cache may key on
  // &active_cells() without being fooled by a System recreated at the same
  // address.
  const std::shared_ptr<const std::vector<std::uint32_t>>& active_cells_handle()
      const {
    return active_;
  }

  // Uniform initial magnetization along `direction` inside the mask.
  VectorField uniform_magnetization(const Vec3& direction) const;

 private:
  Grid grid_;
  Material material_;
  Mask mask_;
  ScalarField ms_scale_;
  ScalarField alpha_;
  std::shared_ptr<const std::vector<std::uint32_t>> active_;
  std::uint64_t revision_ = 0;
};

// The magnetic cells of a region (region ∧ mask) as ascending flat
// indices, read off a System's active-cell list and cached per list
// handle, so a lookup costs the active count once per System and nothing
// after. The last two Systems are kept: a relaxation copy and the run
// System alternate. Callers check that the region is on the System's grid.
class RegionCells {
 public:
  explicit RegionCells(Mask region);

  const Mask& region() const { return region_; }
  const std::vector<std::uint32_t>& of(const System& sys);

 private:
  struct Entry {
    std::shared_ptr<const std::vector<std::uint32_t>> active;
    std::vector<std::uint32_t> cells;
  };
  Mask region_;
  std::vector<Entry> cache_;
};

}  // namespace swsim::mag
