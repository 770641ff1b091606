#include "geom/roughness.h"

#include <gtest/gtest.h>

#include <cmath>

#include "geom/shape.h"
#include "math/constants.h"

namespace swsim::geom {
namespace {

using swsim::math::Grid;
using swsim::math::Mask;
using swsim::math::nm;

Mask straight_guide() {
  const Grid g(60, 20, 1, nm(5), nm(5), nm(1));
  const Rect guide(nm(0), nm(30), nm(300), nm(70));
  return rasterize(g, guide);
}

TEST(Roughness, ZeroAmplitudeIsIdentity) {
  const Mask m = straight_guide();
  RoughnessParams p;
  p.amplitude = 0.0;
  EXPECT_EQ(apply_edge_roughness(m, p), m);
}

TEST(Roughness, PerturbsOnlyNearBoundary) {
  const Mask m = straight_guide();
  RoughnessParams p;
  p.amplitude = nm(8);
  p.correlation_length = nm(20);
  p.seed = 5;
  const Mask rough = apply_edge_roughness(m, p);
  EXPECT_NE(rough, m);

  // Deep-interior cells (>= 2 cells from the boundary) must be untouched,
  // and cells far outside must stay empty.
  const Grid& g = m.grid();
  for (std::size_t y = 0; y < g.ny(); ++y) {
    for (std::size_t x = 0; x < g.nx(); ++x) {
      const bool interior = m.at(x, y) &&
                            (y >= 8 && y <= 11);  // center of the guide
      const bool far_outside = y <= 2 || y >= 17;
      if (interior) {
        EXPECT_TRUE(rough.at(x, y)) << x << "," << y;
      }
      if (far_outside) {
        EXPECT_FALSE(rough.at(x, y)) << x << "," << y;
      }
    }
  }
}

TEST(Roughness, DeterministicInSeed) {
  const Mask m = straight_guide();
  RoughnessParams p;
  p.amplitude = nm(6);
  p.correlation_length = nm(15);
  p.seed = 42;
  EXPECT_EQ(apply_edge_roughness(m, p), apply_edge_roughness(m, p));
}

TEST(Roughness, DifferentSeedsDiffer) {
  const Mask m = straight_guide();
  RoughnessParams a, b;
  a.amplitude = b.amplitude = nm(6);
  a.correlation_length = b.correlation_length = nm(15);
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(apply_edge_roughness(m, a), apply_edge_roughness(m, b));
}

TEST(Roughness, PreservesCellCountApproximately) {
  // Roughness adds and removes edge cells but should not systematically
  // grow or shrink the structure by more than the edge-cell population.
  const Mask m = straight_guide();
  RoughnessParams p;
  p.amplitude = nm(6);
  p.correlation_length = nm(25);
  p.seed = 7;
  const Mask rough = apply_edge_roughness(m, p);
  const double rel = std::fabs(static_cast<double>(rough.count()) -
                               static_cast<double>(m.count())) /
                     static_cast<double>(m.count());
  EXPECT_LT(rel, 0.3);
}

TEST(Trapezoid, ReducesWidth) {
  const double w = trapezoid_effective_width(nm(50), nm(10), 0.3);
  EXPECT_LT(w, nm(50));
  EXPECT_GT(w, 0.0);
}

TEST(Trapezoid, VerticalSidewallIsExact) {
  EXPECT_DOUBLE_EQ(trapezoid_effective_width(nm(50), nm(1), 0.0), nm(50));
}

TEST(Trapezoid, SymmetricInAngleSign) {
  EXPECT_DOUBLE_EQ(trapezoid_effective_width(nm(50), nm(5), 0.2),
                   trapezoid_effective_width(nm(50), nm(5), -0.2));
}

TEST(Trapezoid, ThrowsWhenWidthConsumed) {
  EXPECT_THROW(trapezoid_effective_width(nm(10), nm(50), 0.5),
               std::invalid_argument);
  EXPECT_THROW(trapezoid_effective_width(0.0, nm(1), 0.1),
               std::invalid_argument);
}

}  // namespace
}  // namespace swsim::geom
