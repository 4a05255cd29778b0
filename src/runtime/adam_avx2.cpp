// AVX2 double-lane Adam update (see adam_kernels.h).
//
// Built with -mavx2 -ffp-contract=off. Four floats widen to four doubles,
// take the scalar loop's multiplies, adds, divides and square root in the
// same order, and round back to float with the same round-to-nearest
// conversions. The last n % 4 elements go to the scalar loop.
#include "runtime/adam_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace autopipe::runtime::adam_kernels {

void avx2_adam_update(const AdamStep& k, const float* grad, float* m,
                      float* v, float* value, std::size_t n) {
  const __m256d b1 = _mm256_set1_pd(k.beta1);
  const __m256d c1 = _mm256_set1_pd(1.0 - k.beta1);
  const __m256d b2 = _mm256_set1_pd(k.beta2);
  const __m256d c2 = _mm256_set1_pd(1.0 - k.beta2);
  const __m256d bc1 = _mm256_set1_pd(k.bc1);
  const __m256d bc2 = _mm256_set1_pd(k.bc2);
  const __m256d lr = _mm256_set1_pd(k.lr);
  const __m256d eps = _mm256_set1_pd(k.eps);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_cvtps_pd(_mm_loadu_ps(grad + i));
    const __m256d gm = _mm256_cvtps_pd(_mm_loadu_ps(m + i));
    const __m256d gv = _mm256_cvtps_pd(_mm_loadu_ps(v + i));
    const __m128 mf = _mm256_cvtpd_ps(
        _mm256_add_pd(_mm256_mul_pd(b1, gm), _mm256_mul_pd(c1, g)));
    const __m128 vf = _mm256_cvtpd_ps(_mm256_add_pd(
        _mm256_mul_pd(b2, gv), _mm256_mul_pd(_mm256_mul_pd(c2, g), g)));
    _mm_storeu_ps(m + i, mf);
    _mm_storeu_ps(v + i, vf);
    const __m256d mh = _mm256_div_pd(_mm256_cvtps_pd(mf), bc1);
    const __m256d vh = _mm256_div_pd(_mm256_cvtps_pd(vf), bc2);
    const __m256d step = _mm256_div_pd(
        _mm256_mul_pd(lr, mh), _mm256_add_pd(_mm256_sqrt_pd(vh), eps));
    _mm_storeu_ps(value + i, _mm_sub_ps(_mm_loadu_ps(value + i),
                                        _mm256_cvtpd_ps(step)));
  }
  if (i < n) adam_update(k, grad + i, m + i, v + i, value + i, n - i);
}

}  // namespace autopipe::runtime::adam_kernels

#else  // built without AVX2: avx2_supported() is false, so never called

#include <cstdlib>

namespace autopipe::runtime::adam_kernels {

void avx2_adam_update(const AdamStep&, const float*, float*, float*, float*,
                      std::size_t) {
  std::abort();
}

}  // namespace autopipe::runtime::adam_kernels

#endif
