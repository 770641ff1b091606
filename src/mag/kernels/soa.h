// Structure-of-arrays scratch storage for the LLG hot loops.
//
// math::Field<Vec3> stores xyzxyz... over the whole grid — fine as the
// public value type, but the stride-3 layout defeats auto-vectorization
// in the stage-combination and field-sweep loops, and most of a masked
// grid is vacuum. SoaVec keeps three contiguous double arrays indexed by
// slot (the System's active-cell list). Conversion happens only at the
// solve boundary (gather at step entry, scatter at step exit), never
// inside a stage loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/field.h"

namespace swsim::mag::kernels {

struct SoaVec {
  std::vector<double> x, y, z;

  std::size_t size() const { return x.size(); }

  // Sizes (and zeroes) all three arrays.
  void assign_zero(std::size_t n) {
    x.assign(n, 0.0);
    y.assign(n, 0.0);
    z.assign(n, 0.0);
  }
};

// dst[s] = src[cells[s]]: the listed cells of an AoS field into slots.
void gather(SoaVec& dst, const swsim::math::VectorField& src,
            const std::vector<std::uint32_t>& cells);
// dst[cells[s]] = src[s]; every other cell of dst is left untouched.
void scatter(const SoaVec& src, const std::vector<std::uint32_t>& cells,
             swsim::math::VectorField& dst);

}  // namespace swsim::mag::kernels
