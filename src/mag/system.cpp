#include "mag/system.h"

#include <limits>
#include <stdexcept>
#include <utility>

namespace swsim::mag {

System::System(const Grid& grid, const Material& material)
    : System(grid, material, Mask(grid, /*init=*/true)) {}

System::System(const Grid& grid, const Material& material, const Mask& mask)
    : grid_(grid),
      material_(material),
      mask_(mask),
      ms_scale_(grid, 0.0),
      alpha_(grid, material.alpha) {
  material_.validate();
  if (!(mask.grid() == grid)) {
    throw std::invalid_argument("System: mask grid differs from system grid");
  }
  if (grid.cell_count() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("System: grid exceeds 2^32 cells");
  }
  auto active = std::make_shared<std::vector<std::uint32_t>>();
  active->reserve(mask_.count());
  for (std::size_t i = 0; i < ms_scale_.size(); ++i) {
    ms_scale_[i] = mask_[i] ? 1.0 : 0.0;
    if (mask_[i]) active->push_back(static_cast<std::uint32_t>(i));
  }
  if (active->empty()) {
    throw std::invalid_argument("System: mask selects no magnetic cells");
  }
  active_ = std::move(active);
}

void System::set_ms_scale(const ScalarField& scale) {
  if (!(scale.grid() == grid_)) {
    throw std::invalid_argument("System: ms_scale grid mismatch");
  }
  for (std::size_t i = 0; i < scale.size(); ++i) {
    if (!mask_[i] && scale[i] != 0.0) {
      throw std::invalid_argument(
          "System: ms_scale must be zero outside the mask");
    }
    if (scale[i] < 0.0) {
      throw std::invalid_argument("System: ms_scale must be non-negative");
    }
  }
  ms_scale_ = scale;
  ++revision_;
}

void System::set_alpha_field(const ScalarField& alpha) {
  if (!(alpha.grid() == grid_)) {
    throw std::invalid_argument("System: alpha field grid mismatch");
  }
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    if (!mask_[i]) continue;
    if (alpha[i] < material_.alpha - 1e-15 || alpha[i] > 1.0) {
      throw std::invalid_argument(
          "System: per-cell alpha must lie in [material alpha, 1]");
    }
  }
  alpha_ = alpha;
  ++revision_;
}

VectorField System::uniform_magnetization(const Vec3& direction) const {
  const Vec3 u = swsim::math::normalized(direction);
  VectorField m(grid_);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = mask_[i] ? u : Vec3{};
  }
  return m;
}

RegionCells::RegionCells(Mask region) : region_(std::move(region)) {}

const std::vector<std::uint32_t>& RegionCells::of(const System& sys) {
  for (const Entry& e : cache_) {
    if (e.active.get() == &sys.active_cells()) return e.cells;
  }
  std::vector<std::uint32_t> cells;
  for (const std::uint32_t i : sys.active_cells()) {
    if (region_[i]) cells.push_back(i);
  }
  if (cache_.size() >= 2) cache_.erase(cache_.begin());
  cache_.push_back({sys.active_cells_handle(), std::move(cells)});
  return cache_.back().cells;
}

}  // namespace swsim::mag
