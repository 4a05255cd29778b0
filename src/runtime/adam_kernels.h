// Adam's per-element update, as a scalar loop and as AVX2 double lanes.
//
// Per element, in double: m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g*g,
// each rounded to float for storage; then value -= float(lr * (m/bc1) /
// (sqrt(v/bc2) + eps)) in float. The lane version performs the same IEEE
// operations in the same order (no FMA: adam_avx2.cpp is built with
// -mavx2 -ffp-contract=off), so the two are bit-identical on every input,
// zeros, subnormals, infinities and NaNs included. The lane version lives
// in its own translation unit that includes only this header and the
// intrinsics; callers must check model::kernels::avx2_supported() first.
#pragma once

#include <cstddef>

namespace autopipe::runtime::adam_kernels {

/// One step's coefficients: bias corrections bc1 = 1 - b1^t and
/// bc2 = 1 - b2^t.
struct AdamStep {
  double beta1, beta2, bc1, bc2, lr, eps;
};

/// Updates value, m and v at indices [0, n) from grad.
void adam_update(const AdamStep& k, const float* grad, float* m, float* v,
                 float* value, std::size_t n);
/// The same update, four elements at a time in AVX2 double lanes.
void avx2_adam_update(const AdamStep& k, const float* grad, float* m,
                      float* v, float* value, std::size_t n);

}  // namespace autopipe::runtime::adam_kernels
