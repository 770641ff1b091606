// Structure-of-arrays scratch storage for the LLG hot loops.
//
// math::Field<Vec3> stores xyzxyz... over the whole grid — fine as the
// public value type, but the stride-3 layout defeats vectorization of
// the field sweep, and most of a masked grid is vacuum. SoaVec keeps
// three contiguous double arrays indexed by slot (the System's
// active-cell list). Conversion happens only at a residency boundary
// (llg.h, Stepper::Resident): a gather when a run's first kernel step
// loads the state, a scatter when a reader needs the field (a probe
// sample, the energy check) and when the run ends — never per step.
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
