// GELU's per-element kernels: the owned tanhf and its AVX2 lane version.
//
// GELU's cost is almost all tanh. The library owns its tanhf --
// fdlibm_tanhf, a copy of glibc 2.36's fdlibm tanhf/expm1f that performs
// the same IEEE single-precision operations in the same order -- so
// training numerics do not depend on the host libm, and an 8-lane AVX2
// version can be checked bit for bit against it (tests/ops_golden_test.cpp
// samples every 251st bit pattern; tests/tanhf_exhaustive_test.cpp covers
// all 2^32).
//
// The AVX2 kernels live in their own translation unit (gelu_avx2.cpp),
// built with -mavx2 -ffp-contract=off; callers must check avx2_supported()
// first. That unit includes only this header and the intrinsics, so no
// AVX2-compiled copy of a shared inline function can reach other callers.
#pragma once

namespace autopipe::model::kernels {

/// GELU's tanh-approximation constants, shared by the scalar and the lane
/// kernels: u = kGeluC * (v + kGeluCubic * v^3).
inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluCubic = 0.044715f;

/// tanh, bit-identical to glibc 2.36's tanhf for every input, NaN payloads
/// included.
float fdlibm_tanhf(float x);

/// True when gelu_avx2.cpp was compiled with AVX2 (a flag, not a function:
/// code from that unit must not run before the CPU check).
extern const bool kAvx2LanesBuilt;

/// True when the AVX2 kernels below were built and this CPU runs them.
/// Resolved once per process.
bool avx2_supported();

/// y[i] = fdlibm_tanhf(x[i]), 8 lanes at a time.
void avx2_tanh(const float* x, float* y, int n);
/// y[i] = gelu(x[i]), bit-identical to ops.cpp's scalar gelu.
void avx2_gelu(const float* x, float* y, int n);
/// dx[i] = dy[i] * gelu'(x[i]), bit-identical to ops.cpp's scalar form.
void avx2_gelu_backward(const float* x, const float* dy, float* dx, int n);

}  // namespace autopipe::model::kernels
