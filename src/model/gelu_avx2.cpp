// AVX2 lane versions of fdlibm_tanhf and GELU (see kernels.h).
//
// Built with -mavx2 -ffp-contract=off. Each lane computes every case of
// the scalar code with the same IEEE operations, and masks pick the lane's
// result, so the lanes equal fdlibm_tanhf bit for bit. Only the intrinsics
// header is included: a shared inline function instantiated here would be
// AVX2 code that the linker could hand to callers on any CPU.
#include "model/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace autopipe::model::kernels {

extern const bool kAvx2LanesBuilt = true;

namespace {

__m256 splat(float v) { return _mm256_set1_ps(v); }
__m256i splat_i(int v) { return _mm256_set1_epi32(v); }
__m256i as_int(__m256 v) { return _mm256_castps_si256(v); }
__m256 as_float(__m256i v) { return _mm256_castsi256_ps(v); }
__m256 add(__m256 a, __m256 b) { return _mm256_add_ps(a, b); }
__m256 sub(__m256 a, __m256 b) { return _mm256_sub_ps(a, b); }
__m256 mul(__m256 a, __m256 b) { return _mm256_mul_ps(a, b); }
__m256 div(__m256 a, __m256 b) { return _mm256_div_ps(a, b); }

/// Lane-wise mask ? a : b (mask lanes are all-ones or all-zeros).
__m256 select(__m256i mask, __m256 a, __m256 b) {
  return _mm256_blendv_ps(b, a, as_float(mask));
}
/// Lane-wise a < b on non-negative bit patterns (|x| words fit in int32).
__m256i less(__m256i a, int b) { return _mm256_cmpgt_epi32(splat_i(b), a); }
__m256i equal(__m256i a, int b) { return _mm256_cmpeq_epi32(a, splat_i(b)); }

/// y * 2^k per lane, by adding k to y's exponent field.
__m256 scale_exponent(__m256 y, __m256i k) {
  return as_float(_mm256_add_epi32(as_int(y), _mm256_slli_epi32(k, 23)));
}

/// tanhf.cpp's expm1f on the same argument range, in lanes.
__m256 expm1_lanes(__m256 x) {
  const __m256i hx = _mm256_and_si256(as_int(x), splat_i(0x7fffffff));
  const __m256 sign = _mm256_and_ps(x, splat(-0.0f));
  const __m256i neg = _mm256_cmpgt_epi32(splat_i(0), as_int(x));

  // Argument reduction. Below 1.5 ln2 the scalar code takes k = +-1 and
  // hi = x -+ ln2_hi, lo = +-ln2_lo, which is the general formula's
  // arithmetic at t = +-1; only k itself must be forced.
  __m256i k = _mm256_cvttps_epi32(
      add(mul(splat(1.4426950216e+00f), x), _mm256_or_ps(splat(0.5f), sign)));
  k = _mm256_blendv_epi8(k, _mm256_or_si256(neg, splat_i(1)),
                         less(hx, 0x3f851592));
  const __m256i reduced = _mm256_cmpgt_epi32(hx, splat_i(0x3eb17218));
  k = _mm256_and_si256(k, reduced);
  const __m256 tk = _mm256_cvtepi32_ps(k);
  const __m256 hi = sub(x, mul(tk, splat(6.9313812256e-01f)));
  const __m256 lo = mul(tk, splat(9.0580006145e-06f));
  const __m256 xr = select(reduced, sub(hi, lo), x);
  const __m256 c = _mm256_and_ps(sub(sub(hi, xr), lo), as_float(reduced));

  const __m256 hfx = mul(splat(0.5f), xr);
  const __m256 hxs = mul(xr, hfx);
  __m256 r1 = add(splat(-7.9365076090e-05f),
                  mul(hxs, add(splat(4.0082177293e-06f),
                               mul(hxs, splat(-2.0109921195e-07f)))));
  r1 = add(splat(-3.3333335072e-02f),
           mul(hxs, add(splat(1.5873016091e-03f), mul(hxs, r1))));
  r1 = add(splat(1.0f), mul(hxs, r1));
  const __m256 t = sub(splat(3.0f), mul(r1, hfx));
  __m256 e = mul(hxs, div(sub(r1, t), sub(splat(6.0f), mul(xr, t))));
  const __m256 res_k0 = sub(xr, sub(mul(xr, e), hxs));
  e = sub(sub(mul(xr, sub(e, c)), c), hxs);
  const __m256 res_km1 = sub(mul(splat(0.5f), sub(xr, e)), splat(0.5f));
  const __m256 e_minus_x = sub(e, xr);
  const __m256 res_far =
      sub(scale_exponent(sub(splat(1.0f), e_minus_x), k), splat(1.0f));
  // 2^-k and 1 - 2^-k from exponent bits (exact for the k < 23 lanes).
  const __m256 two_mk =
      as_float(_mm256_slli_epi32(_mm256_sub_epi32(splat_i(0x7f), k), 23));
  const __m256 res_mid =
      scale_exponent(sub(sub(splat(1.0f), two_mk), e_minus_x), k);
  const __m256 res_high = scale_exponent(
      add(sub(xr, add(e, two_mk)), splat(1.0f)), k);

  const __m256i far = _mm256_or_si256(_mm256_cmpgt_epi32(splat_i(-1), k),
                                      _mm256_cmpgt_epi32(k, splat_i(56)));
  __m256 r = select(_mm256_cmpgt_epi32(splat_i(23), k), res_mid, res_high);
  r = select(far, res_far, r);
  r = select(equal(k, -1), res_km1, r);
  r = select(equal(k, 0), res_k0, r);
  return select(less(hx, 0x33000000), x, r);
}

__m256 tanh_lanes(__m256 x) {
  const __m256i ix = _mm256_and_si256(as_int(x), splat_i(0x7fffffff));
  const __m256 sign = _mm256_and_ps(x, splat(-0.0f));
  const __m256 ax = as_float(ix);
  const __m256i big = _mm256_cmpgt_epi32(ix, splat_i(0x3f7fffff));  // >= 1
  const __m256 t =
      expm1_lanes(select(big, mul(splat(2.0f), ax), mul(splat(-2.0f), ax)));
  // |x| >= 1: z = 1 - 2/(t+2); below: z = -t/(t+2). One division serves
  // both, each lane dividing its own case's numerator.
  const __m256 q = div(select(big, splat(2.0f), _mm256_xor_ps(t, splat(-0.0f))),
                       add(t, splat(2.0f)));
  __m256 z = select(big, sub(splat(1.0f), q), q);
  z = select(less(ix, 0x41b00000), z, splat(1.0f));  // |x| >= 22 or inf
  z = _mm256_xor_ps(z, sign);
  // |x| < 2^-55, +-0 included: x * (1 + x).
  z = select(less(ix, 0x24000000), mul(x, add(splat(1.0f), x)), z);
  // NaN: the quieted input, as the scalar 1/x +- 1 returns.
  return select(_mm256_cmpgt_epi32(ix, splat_i(0x7f800000)), add(x, x), z);
}

/// u = kGeluC * (v + kGeluCubic * v * v * v), as gelu_one computes it.
__m256 gelu_arg(__m256 v) {
  return mul(splat(kGeluC),
             add(v, mul(mul(mul(splat(kGeluCubic), v), v), v)));
}

/// gelu(v) from t = tanh(gelu_arg(v)), as gelu_one computes it.
__m256 gelu_lanes(__m256 v, __m256 t) {
  return mul(mul(splat(0.5f), v), add(splat(1.0f), t));
}

/// gelu'(v) from t = tanh(gelu_arg(v)), as gelu_grad_one computes it.
__m256 gelu_grad_lanes(__m256 v, __m256 t) {
  constexpr float kCubic3 = 3.0f * kGeluCubic;
  const __m256 du =
      mul(splat(kGeluC), add(splat(1.0f), mul(mul(splat(kCubic3), v), v)));
  return add(mul(splat(0.5f), add(splat(1.0f), t)),
             mul(mul(mul(splat(0.5f), v), sub(splat(1.0f), mul(t, t))), du));
}

/// Load/store mask for the first `rem` lanes (all lanes when rem >= 8);
/// masked-off lanes read as 0 and are never written.
__m256i lanes_mask(int rem) {
  return _mm256_cmpgt_epi32(splat_i(rem),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

}  // namespace

void avx2_tanh(const float* x, float* y, int n) {
  for (int i = 0; i < n; i += 8) {
    const __m256i m = lanes_mask(n - i);
    _mm256_maskstore_ps(y + i, m, tanh_lanes(_mm256_maskload_ps(x + i, m)));
  }
}

void avx2_gelu(const float* x, float* y, int n) {
  for (int i = 0; i < n; i += 8) {
    const __m256i m = lanes_mask(n - i);
    const __m256 v = _mm256_maskload_ps(x + i, m);
    _mm256_maskstore_ps(y + i, m, gelu_lanes(v, tanh_lanes(gelu_arg(v))));
  }
}

void avx2_gelu_backward(const float* x, const float* dy, float* dx, int n) {
  for (int i = 0; i < n; i += 8) {
    const __m256i m = lanes_mask(n - i);
    const __m256 v = _mm256_maskload_ps(x + i, m);
    const __m256 grad = gelu_grad_lanes(v, tanh_lanes(gelu_arg(v)));
    _mm256_maskstore_ps(dx + i, m,
                        mul(_mm256_maskload_ps(dy + i, m), grad));
  }
}

void avx2_gelu_with_grad(const float* x, float* y, float* grad, int n) {
  for (int i = 0; i < n; i += 8) {
    const __m256i m = lanes_mask(n - i);
    const __m256 v = _mm256_maskload_ps(x + i, m);
    const __m256 t = tanh_lanes(gelu_arg(v));
    _mm256_maskstore_ps(y + i, m, gelu_lanes(v, t));
    _mm256_maskstore_ps(grad + i, m, gelu_grad_lanes(v, t));
  }
}

}  // namespace autopipe::model::kernels

#else  // built without AVX2: avx2_supported() is false, so never called

#include <cstdlib>

namespace autopipe::model::kernels {

extern const bool kAvx2LanesBuilt = false;

void avx2_tanh(const float*, float*, int) { std::abort(); }
void avx2_gelu(const float*, float*, int) { std::abort(); }
void avx2_gelu_backward(const float*, const float*, float*, int) {
  std::abort();
}
void avx2_gelu_with_grad(const float*, float*, float*, int) { std::abort(); }

}  // namespace autopipe::model::kernels

#endif
