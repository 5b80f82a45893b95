// lint-expect: raw-simd-intrinsic
// Only the src/tensor intrinsics TU (gemm_avx2.cc) may use vector
// intrinsics: int8 ones anywhere else are flagged like any other.
#include <immintrin.h>

namespace sinan {

inline int
SimdInt8Bad(const void* p)
{
    __m256i v = _mm256_maddubs_epi16(_mm256_setzero_si256(),
                                     _mm256_loadu_si256(
                                         static_cast<const __m256i*>(p)));
    (void)v;
    return 0;
}

} // namespace sinan
