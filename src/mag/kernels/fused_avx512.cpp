// The AVX-512F fused sweep: eight lanes, neighbours read by hardware
// gathers, the antenna gate applied as a lane mask. Everything below the
// target line is compiled for AVX-512F (see fused_block.h for why it has
// internal linkage).
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "mag/kernels/sweep.h"

#pragma GCC target("avx512f")
#include "mag/kernels/fused_block.h"

namespace swsim::mag::kernels {
namespace {

struct Avx512Lane {
  static constexpr std::size_t kWidth = 8;
  __m512d v;
  static Avx512Lane load(const double* p) { return {_mm512_loadu_pd(p)}; }
  // The masked form with every lane on: GCC 12's unmasked intrinsic
  // trips -Wmaybe-uninitialized on its own placeholder source.
  static Avx512Lane gather(const double* p, const std::uint32_t* idx) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return {_mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, vi, p, 8)};
  }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  static Avx512Lane set1(double s) { return {_mm512_set1_pd(s)}; }
  static Avx512Lane zero() { return {_mm512_setzero_pd()}; }
  static Avx512Lane gated_add(Avx512Lane h, Avx512Lane gate, Avx512Lane d) {
    const __mmask8 on =
        _mm512_cmp_pd_mask(gate.v, _mm512_setzero_pd(), _CMP_NEQ_UQ);
    return {_mm512_mask_add_pd(h.v, on, h.v, d.v)};
  }
};

Avx512Lane operator+(Avx512Lane a, Avx512Lane b) {
  return {_mm512_add_pd(a.v, b.v)};
}
Avx512Lane operator-(Avx512Lane a, Avx512Lane b) {
  return {_mm512_sub_pd(a.v, b.v)};
}
Avx512Lane operator*(Avx512Lane a, Avx512Lane b) {
  return {_mm512_mul_pd(a.v, b.v)};
}

}  // namespace

void fused_avx512(const FusedSweep& s, std::size_t b, std::size_t e) {
  fused_range<Avx512Lane>(s, b, e);
}

}  // namespace swsim::mag::kernels
