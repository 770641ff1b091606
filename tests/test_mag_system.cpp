#include "mag/system.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "math/constants.h"

namespace swsim::mag {
namespace {

using swsim::math::Grid;
using swsim::math::Mask;
using swsim::math::ScalarField;
using swsim::math::Vec3;

Grid tiny_grid() { return Grid(4, 4, 1, 5e-9, 5e-9, 1e-9); }

TEST(System, FullBoxSystem) {
  const System sys(tiny_grid(), Material::fecob());
  EXPECT_EQ(sys.magnetic_cell_count(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(sys.mask()[i]);
    EXPECT_DOUBLE_EQ(sys.ms_at(i), Material::fecob().ms);
    EXPECT_DOUBLE_EQ(sys.alpha_at(i), Material::fecob().alpha);
  }
}

TEST(System, MaskedSystem) {
  Mask m(tiny_grid());
  m.set_at(0, 0, true);
  m.set_at(1, 0, true);
  const System sys(tiny_grid(), Material::fecob(), m);
  EXPECT_EQ(sys.magnetic_cell_count(), 2u);
  EXPECT_DOUBLE_EQ(sys.ms_scale()[tiny_grid().index(2, 2, 0)], 0.0);
}

TEST(System, RejectsEmptyMask) {
  const Mask empty(tiny_grid());
  EXPECT_THROW(System(tiny_grid(), Material::fecob(), empty),
               std::invalid_argument);
}

TEST(System, RejectsMaskGridMismatch) {
  const Mask m(Grid(2, 2, 1, 1e-9, 1e-9, 1e-9), true);
  EXPECT_THROW(System(tiny_grid(), Material::fecob(), m),
               std::invalid_argument);
}

TEST(System, RejectsInvalidMaterial) {
  Material bad = Material::fecob();
  bad.ms = -1.0;
  EXPECT_THROW(System(tiny_grid(), bad), std::invalid_argument);
}

TEST(System, UniformMagnetizationRespectsMask) {
  Mask m(tiny_grid());
  m.set_at(1, 1, true);
  const System sys(tiny_grid(), Material::fecob(), m);
  const auto mag = sys.uniform_magnetization({0, 0, 2});  // normalized
  EXPECT_EQ(mag.at(1, 1), (Vec3{0, 0, 1}));
  EXPECT_EQ(mag.at(0, 0), (Vec3{}));
}

TEST(System, MsScaleValidation) {
  const System base(tiny_grid(), Material::fecob());
  System sys = base;
  ScalarField scale(tiny_grid(), 0.9);
  EXPECT_NO_THROW(sys.set_ms_scale(scale));
  EXPECT_DOUBLE_EQ(sys.ms_at(0), 0.9 * Material::fecob().ms);

  ScalarField negative(tiny_grid(), -0.1);
  EXPECT_THROW(sys.set_ms_scale(negative), std::invalid_argument);

  ScalarField wrong_grid(Grid(2, 2, 1, 1e-9, 1e-9, 1e-9), 1.0);
  EXPECT_THROW(sys.set_ms_scale(wrong_grid), std::invalid_argument);
}

TEST(System, MsScaleMustBeZeroOutsideMask) {
  Mask m(tiny_grid());
  m.set_at(0, 0, true);
  System sys(tiny_grid(), Material::fecob(), m);
  ScalarField scale(tiny_grid(), 1.0);  // nonzero everywhere: illegal
  EXPECT_THROW(sys.set_ms_scale(scale), std::invalid_argument);
}

TEST(System, AlphaFieldValidation) {
  System sys(tiny_grid(), Material::fecob());
  ScalarField a(tiny_grid(), 0.2);
  EXPECT_NO_THROW(sys.set_alpha_field(a));
  EXPECT_DOUBLE_EQ(sys.alpha_at(0), 0.2);

  ScalarField below(tiny_grid(), 0.001);  // below material alpha (0.004)
  EXPECT_THROW(sys.set_alpha_field(below), std::invalid_argument);

  ScalarField above(tiny_grid(), 1.5);
  EXPECT_THROW(sys.set_alpha_field(above), std::invalid_argument);
}

TEST(System, RegionCellsAreRegionAndMaskPerSystem) {
  const Grid g = tiny_grid();
  Mask region(g);
  for (std::size_t x = 0; x < 4; ++x) region.set_at(x, 1, true);
  Mask left(g), right(g);
  for (std::size_t y = 0; y < 4; ++y) {
    left.set_at(0, y, true);
    left.set_at(1, y, true);
    right.set_at(3, y, true);
  }
  const System a(g, Material::fecob(), left);
  const System b(g, Material::fecob(), right);
  const System c(g, Material::fecob());
  const std::vector<std::uint32_t> in_a = {4, 5}, in_b = {7},
                                   in_c = {4, 5, 6, 7};
  RegionCells cells(region);
  // Alternating Systems (a relaxation copy and the run System) each get
  // their own list, and a copy of a System hits its original's entry.
  EXPECT_EQ(cells.of(a), in_a);
  EXPECT_EQ(cells.of(b), in_b);
  EXPECT_EQ(cells.of(a), in_a);
  // A System rebuilt from the same mask has a list of its own; a copy
  // shares its original's.
  const System a_copy = a;
  EXPECT_EQ(&a_copy.active_cells(), &a.active_cells());
  EXPECT_EQ(&cells.of(a_copy), &cells.of(a));
  const System a_rebuilt(g, Material::fecob(), left);
  EXPECT_NE(&a_rebuilt.active_cells(), &a.active_cells());
  // A third System evicts the older entry; the evicted one is rebuilt.
  EXPECT_EQ(cells.of(c), in_c);
  EXPECT_EQ(cells.of(b), in_b);
  EXPECT_EQ(cells.of(a), in_a);
}

}  // namespace
}  // namespace swsim::mag
