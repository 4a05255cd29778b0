// The owned tanhf: glibc 2.36's fdlibm tanhf (sysdeps/ieee754/flt-32/
// s_tanhf.c) and the part of its expm1f (s_expm1f.c) that tanhf reaches,
// with glibc's constants and its order of single-precision operations.
#include <bit>
#include <cmath>
#include <cstdint>

#include "model/kernels.h"

namespace autopipe::model::kernels {

namespace {

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }
float from_bits(std::uint32_t u) { return std::bit_cast<float>(u); }

/// y * 2^k by adding k to y's exponent field (y normal, no overflow).
float scale_exponent(float y, int k) {
  return from_bits(bits(y) + (static_cast<std::uint32_t>(k) << 23));
}

/// fdlibm expm1f for the arguments tanhf passes it: x in [2, 44) or
/// (-2, -2^-54]. The branches that range never reaches (non-finite input,
/// overflow, x < -27 ln2, and k == 1, which needs x in (0.5 ln2, 1.5 ln2))
/// are left out.
float expm1f(float x) {
  constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
  constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
  constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
  constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
  constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
  constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
  constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
  constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb

  const std::uint32_t hx = bits(x) & 0x7fffffffu;
  const bool neg = (bits(x) >> 31) != 0;
  if (hx < 0x33000000u) return x;  // |x| < 2^-25

  // Argument reduction: x = k ln2 + (hi - lo), with c the rounding error.
  int k = 0;
  float c = 0;
  if (hx > 0x3eb17218u) {  // |x| > 0.5 ln2
    float hi, lo;
    if (hx < 0x3f851592u) {  // and |x| < 1.5 ln2
      hi = neg ? x + kLn2Hi : x - kLn2Hi;
      lo = neg ? -kLn2Lo : kLn2Lo;
      k = neg ? -1 : 1;
    } else {
      k = static_cast<int>(kInvLn2 * x + (neg ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * kLn2Hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k <= -2 || k > 56) return scale_exponent(1.0f - (e - x), k) - 1.0f;
  const float two_mk = from_bits(static_cast<std::uint32_t>(0x7f - k) << 23);
  if (k < 23) return scale_exponent((1.0f - two_mk) - (e - x), k);
  float y = x - (e + two_mk);
  y += 1.0f;
  return scale_exponent(y, k);
}

}  // namespace

float fdlibm_tanhf(float x) {
  const std::uint32_t jx = bits(x);
  const std::uint32_t ix = jx & 0x7fffffffu;
  const bool neg = (jx >> 31) != 0;
  if (ix >= 0x7f800000u) {  // inf or NaN: tanh(+-inf) = +-1, NaN stays NaN
    return neg ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z;
  if (ix < 0x41b00000u) {                        // |x| < 22
    if (ix == 0) return x;                       // +-0
    if (ix < 0x24000000u) return x * (1.0f + x);  // |x| < 2^-55
    if (ix >= 0x3f800000u) {                     // |x| >= 1
      const float t = expm1f(2.0f * std::fabs(x));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = expm1f(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  } else {
    z = 1.0f - 1.0e-30f;  // |x| >= 22: 1, inexact
  }
  return neg ? -z : z;
}

bool avx2_supported() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return kAvx2LanesBuilt && __builtin_cpu_supports("avx2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

}  // namespace autopipe::model::kernels
