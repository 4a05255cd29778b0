// AVX2 version of the strided GEMM tile (see kernels.h).
//
// Built with -mavx2 -ffp-contract=off and without FMA: each lane takes a
// separate multiply and add per depth step, which round exactly like the
// scalar chain of ref::, so the tile equals gemm_tile and ref:: bit for
// bit. Only the intrinsics header is included, for the reason
// gelu_avx2.cpp gives.
#include "model/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace autopipe::model::kernels {

namespace {

/// Rows [i, i+R) x columns [j, j + 8V) of C: R*V accumulators stay in
/// registers across the whole reduction, so each B vector feeds R rows and
/// C is stored once.
template <int R, int V>
void lanes(const StridedGemm& g, int i, int j) {
  __m256 s[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) s[r][v] = _mm256_setzero_ps();
  }
  const float* ap = g.a + i * g.a_row;
  const float* bp = g.b + j;
  for (int l = 0; l < g.depth; ++l, ap += g.a_depth, bp += g.n) {
    __m256 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) bv[v] = _mm256_loadu_ps(bp + 8 * v);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 w = _mm256_broadcast_ss(ap + r * g.a_row);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        s[r][v] = _mm256_add_ps(s[r][v], _mm256_mul_ps(w, bv[v]));
      }
    }
  }
  float* cp = g.c + static_cast<long>(i) * g.n + j;
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) _mm256_storeu_ps(cp + r * g.n + 8 * v, s[r][v]);
  }
}

/// Column j of rows [i, i+R): R scalar chains in the same order.
template <int R>
void column(const StridedGemm& g, int i, int j) {
  float s[R] = {};
  const float* ap = g.a + i * g.a_row;
  const float* bp = g.b + j;
  for (int l = 0; l < g.depth; ++l, ap += g.a_depth, bp += g.n) {
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) s[r] += ap[r * g.a_row] * bp[0];
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) g.c[static_cast<long>(i + r) * g.n + j] = s[r];
}

template <int R>
void rows(const StridedGemm& g, int i) {
  int j = 0;
  for (; j + 16 <= g.n; j += 16) lanes<R, 2>(g, i, j);
  for (; j + 8 <= g.n; j += 8) lanes<R, 1>(g, i, j);
  for (; j < g.n; ++j) column<R>(g, i, j);
}

}  // namespace

void avx2_gemm_tile(const StridedGemm& g, int r0, int r1) {
  int i = r0;
  for (; i + 4 <= r1; i += 4) rows<4>(g, i);
  for (; i < r1; ++i) rows<1>(g, i);
}

}  // namespace autopipe::model::kernels

#else  // built without AVX2: avx2_supported() is false, so never called

#include <cstdlib>

namespace autopipe::model::kernels {

void avx2_gemm_tile(const StridedGemm&, int, int) { std::abort(); }

}  // namespace autopipe::model::kernels

#endif
