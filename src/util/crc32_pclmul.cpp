// PCLMULQDQ fold for CRC32 (see crc32_kernels.h).
//
// Built with -mpclmul -msse4.1. Each 128-bit accumulator holds a running
// remainder of its 16-byte lane; one fold step multiplies its two 64-bit
// halves by x^(512+64) and x^512 mod P (both bit-reflected) and adds the
// next 64 bytes. The four lanes are then folded into one by 128-bit
// distance constants, the remaining 16-byte blocks likewise, and the
// 128-bit remainder shrinks to 64 and 32 bits before a Barrett reduction
// by P and floor(x^64 / P) yields the register.
#include "util/crc32_kernels.h"

#if defined(__PCLMUL__) && defined(__SSE4_1__)

#include <immintrin.h>

namespace autopipe::util::crc32_kernels {

extern const bool kPclmulBuilt = true;

namespace {

/// Fold constants for P = 0x104C11DB7, each bit-reflected into 33 bits:
/// {x^(4*128+32), x^(4*128-32)} mod P fold across 64 bytes,
/// {x^(128+32), x^(128-32)} mod P across 16 bytes, x^64 mod P takes 64
/// bits to 32, and {P, floor(x^64 / P)} drive the Barrett step.
constexpr long long kFold64Lo = 0x154442bd4LL;
constexpr long long kFold64Hi = 0x1c6e41596LL;
constexpr long long kFold16Lo = 0x1751997d0LL;
constexpr long long kFold16Hi = 0x0ccaa009eLL;
constexpr long long kFold32 = 0x163cd6124LL;
constexpr long long kPoly = 0x1db710641LL;
constexpr long long kBarrettMu = 0x1f7011641LL;

__m128i load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// acc's two halves carried `k`'s distance forward, plus `next`.
__m128i fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

}  // namespace

std::uint32_t pclmul_fold(std::uint32_t state, const unsigned char* p,
                          std::size_t size) {
  __m128i a0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(
                                          static_cast<int>(state)));
  __m128i a1 = load(p + 16);
  __m128i a2 = load(p + 32);
  __m128i a3 = load(p + 48);
  p += 64;
  size -= 64;

  const __m128i k64 = _mm_set_epi64x(kFold64Hi, kFold64Lo);
  for (; size >= 64; p += 64, size -= 64) {
    a0 = fold(a0, k64, load(p));
    a1 = fold(a1, k64, load(p + 16));
    a2 = fold(a2, k64, load(p + 32));
    a3 = fold(a3, k64, load(p + 48));
  }

  const __m128i k16 = _mm_set_epi64x(kFold16Hi, kFold16Lo);
  __m128i x = fold(a0, k16, a1);
  x = fold(x, k16, a2);
  x = fold(x, k16, a3);
  for (; size >= 16; p += 16, size -= 16) x = fold(x, k16, load(p));

  // 128 -> 64 bits: the low half moves up by 64 bits (the k16 high word
  // is x^(128-32) mod P) and joins the high half.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k16, 0x10));
  // 64 -> 32 bits of remainder plus 32 of quotient space.
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32),
                                         _mm_set_epi64x(0, kFold32), 0x00));
  // Barrett: q = floor(x / P) via mu, then x - q * P leaves the register.
  const __m128i barrett = _mm_set_epi64x(kBarrettMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

}  // namespace autopipe::util::crc32_kernels

#else  // built without PCLMULQDQ: pclmul_supported() is false, so never called

#include <cstdlib>

namespace autopipe::util::crc32_kernels {

extern const bool kPclmulBuilt = false;

std::uint32_t pclmul_fold(std::uint32_t, const unsigned char*, std::size_t) {
  std::abort();
}

}  // namespace autopipe::util::crc32_kernels

#endif
