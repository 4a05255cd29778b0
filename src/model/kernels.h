// The hot path's lane kernels: the strided GEMM tile behind all three
// matrix products, and GELU's owned tanhf with its AVX2 lane version.
//
// GEMM: one register tile computes C = A*B for a strided A, so matmul
// (A = a), matmul_grad_b (A = a^T, by swapping the strides) and
// matmul_grad_a (A = dc against a packed copy of b^T) share it. One lane
// holds one output element's accumulator and takes a separate multiply and
// add per depth step, in ascending order -- ref::'s chain -- so the tile is
// bit-identical to ref:: at every width. gemm_tile is the baseline (SSE2 on
// x86-64, scalar elsewhere); avx2_gemm_tile is the same tile 8 lanes wide.
//
// GELU's cost is almost all tanh. The library owns its tanhf --
// fdlibm_tanhf, a copy of glibc 2.36's fdlibm tanhf/expm1f that performs
// the same IEEE single-precision operations in the same order -- so
// training numerics do not depend on the host libm, and an 8-lane AVX2
// version can be checked bit for bit against it (tests/ops_golden_test.cpp
// samples every 251st bit pattern; tests/tanhf_exhaustive_test.cpp covers
// all 2^32).
//
// The AVX2 kernels live in their own translation units (gelu_avx2.cpp,
// gemm_avx2.cpp), built with -mavx2 -ffp-contract=off; callers must check
// avx2_supported() first. Those units include only this header and the
// intrinsics, so no AVX2-compiled copy of a shared inline function can
// reach other callers.
#pragma once

namespace autopipe::model::kernels {

/// Operands of one strided product: for every row i and column j of C,
///   c[i*n + j] = sum over l = 0 .. depth-1 of A(i, l) * b[l*n + j],
///   A(i, l)    = a[i*a_row + l*a_depth].
/// b is row-major [depth, n]; c is row-major [rows, n] and every element in
/// the requested rows is stored (no zero-fill needed).
struct StridedGemm {
  const float* a;
  long a_row;    ///< A's step between output rows
  long a_depth;  ///< A's step along the reduction
  const float* b;
  float* c;
  int depth;
  int n;
};

/// Computes C's rows [r0, r1): 4-row x 8-column SSE2 tiles (scalar without
/// SSE2), a scalar column tail and single-row tiles for the ragged rows.
void gemm_tile(const StridedGemm& g, int r0, int r1);
/// The same rows, bit-identical: 4-row x 16-column AVX2 tiles, then an
/// 8-column step, a scalar column tail and single-row tiles.
void avx2_gemm_tile(const StridedGemm& g, int r0, int r1);

/// GELU's tanh-approximation constants, shared by the scalar and the lane
/// kernels: u = kGeluC * (v + kGeluCubic * v^3).
inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluCubic = 0.044715f;

/// tanh, bit-identical to glibc 2.36's tanhf for every input, NaN payloads
/// included.
float fdlibm_tanhf(float x);

/// True when the AVX2 units were compiled with AVX2 (a flag, not a
/// function: code from those units must not run before the CPU check).
extern const bool kAvx2LanesBuilt;

/// True when the AVX2 kernels were built and this CPU runs them. Resolved
/// once per process.
bool avx2_supported();

/// y[i] = fdlibm_tanhf(x[i]), 8 lanes at a time.
void avx2_tanh(const float* x, float* y, int n);
/// y[i] = gelu(x[i]), bit-identical to ops.cpp's scalar gelu.
void avx2_gelu(const float* x, float* y, int n);
/// dx[i] = dy[i] * gelu'(x[i]), bit-identical to ops.cpp's scalar form.
void avx2_gelu_backward(const float* x, const float* dy, float* dx, int n);
/// y[i] = gelu(x[i]) and grad[i] = gelu'(x[i]) from one tanh per element:
/// y equals ops.cpp's scalar gelu, and dy[i] * grad[i] equals its scalar
/// gelu backward, bit for bit. gelu_with_grad is the scalar twin (ops.cpp,
/// any CPU); avx2_gelu_with_grad the same in 8 lanes.
void gelu_with_grad(const float* x, float* y, float* grad, int n);
void avx2_gelu_with_grad(const float* x, float* y, float* grad, int n);

}  // namespace autopipe::model::kernels
