// The AVX2 fused sweep: four lanes, neighbours read by hardware gathers.
// Everything below the target line is compiled for AVX2 (see
// fused_block.h for why it has internal linkage).
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "mag/kernels/sweep.h"

#pragma GCC target("avx2")
#include "mag/kernels/fused_block.h"

namespace swsim::mag::kernels {
namespace {

struct Avx2Lane {
  static constexpr std::size_t kWidth = 4;
  __m256d v;
  static Avx2Lane load(const double* p) { return {_mm256_loadu_pd(p)}; }
  // The masked form with every lane on: GCC 12's unmasked intrinsic
  // trips -Wmaybe-uninitialized on its own placeholder source.
  static Avx2Lane gather(const double* p, const std::uint32_t* idx) {
    const __m128i vi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return {_mm256_mask_i32gather_pd(_mm256_setzero_pd(), p, vi, all, 8)};
  }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  static Avx2Lane set1(double s) { return {_mm256_set1_pd(s)}; }
  static Avx2Lane zero() { return {_mm256_setzero_pd()}; }
  static Avx2Lane gated_add(Avx2Lane h, Avx2Lane gate, Avx2Lane d) {
    const __m256d on =
        _mm256_cmp_pd(gate.v, _mm256_setzero_pd(), _CMP_NEQ_UQ);
    return {_mm256_blendv_pd(h.v, _mm256_add_pd(h.v, d.v), on)};
  }
};

Avx2Lane operator+(Avx2Lane a, Avx2Lane b) {
  return {_mm256_add_pd(a.v, b.v)};
}
Avx2Lane operator-(Avx2Lane a, Avx2Lane b) {
  return {_mm256_sub_pd(a.v, b.v)};
}
Avx2Lane operator*(Avx2Lane a, Avx2Lane b) {
  return {_mm256_mul_pd(a.v, b.v)};
}

}  // namespace

void fused_avx2(const FusedSweep& s, std::size_t b, std::size_t e) {
  fused_range<Avx2Lane>(s, b, e);
}

}  // namespace swsim::mag::kernels
