// The SSE2 fused sweep: two lanes, the x86-64 baseline every host runs.
#include <emmintrin.h>

#include <cstddef>
#include <cstdint>

#include "mag/kernels/sweep.h"

#include "mag/kernels/fused_block.h"

namespace swsim::mag::kernels {
namespace {

struct Sse2Lane {
  static constexpr std::size_t kWidth = 2;
  __m128d v;
  static Sse2Lane load(const double* p) { return {_mm_loadu_pd(p)}; }
  static Sse2Lane gather(const double* p, const std::uint32_t* idx) {
    return {_mm_loadh_pd(_mm_load_sd(p + idx[0]), p + idx[1])};
  }
  void store(double* p) const { _mm_storeu_pd(p, v); }
  static Sse2Lane set1(double s) { return {_mm_set1_pd(s)}; }
  static Sse2Lane zero() { return {_mm_setzero_pd()}; }
  static Sse2Lane gated_add(Sse2Lane h, Sse2Lane gate, Sse2Lane d) {
    const __m128d on = _mm_cmpneq_pd(gate.v, _mm_setzero_pd());
    const __m128d sum = _mm_add_pd(h.v, d.v);
    return {_mm_or_pd(_mm_and_pd(on, sum), _mm_andnot_pd(on, h.v))};
  }
};

Sse2Lane operator+(Sse2Lane a, Sse2Lane b) {
  return {_mm_add_pd(a.v, b.v)};
}
Sse2Lane operator-(Sse2Lane a, Sse2Lane b) {
  return {_mm_sub_pd(a.v, b.v)};
}
Sse2Lane operator*(Sse2Lane a, Sse2Lane b) {
  return {_mm_mul_pd(a.v, b.v)};
}

}  // namespace

void fused_sse2(const FusedSweep& s, std::size_t b, std::size_t e) {
  fused_range<Sse2Lane>(s, b, e);
}

}  // namespace swsim::mag::kernels
