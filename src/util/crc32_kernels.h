// The two kernels behind util::Crc32::update, exposed so tests and benches
// can pin them against each other.
//
// Both advance the raw CRC register (the pre-inverted running state, not
// the finished checksum) for CRC32 with the reflected polynomial
// 0xEDB88320. slice8 runs on any CPU and takes any length. pclmul_fold
// folds 64-byte blocks with carry-less multiplies -- four 128-bit
// accumulators, then a Barrett reduction to 32 bits (Gopal et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel, 2009) -- and is exact arithmetic over GF(2), so both give the same
// register for the same bytes.
//
// pclmul_fold lives in its own translation unit (crc32_pclmul.cpp), built
// with -mpclmul -msse4.1; callers must check pclmul_supported() first. As
// with the model's lane kernels (model/kernels.h), that unit includes only
// this header and the intrinsics.
#pragma once

#include <cstddef>
#include <cstdint>

namespace autopipe::util::crc32_kernels {

/// Slicing-by-8 over `size` bytes (eight table lookups per 8-byte word on
/// little-endian hosts, byte at a time elsewhere and for the tail).
std::uint32_t slice8(std::uint32_t state, const unsigned char* p,
                     std::size_t size);

/// The PCLMULQDQ fold over exactly `size` bytes; `size` must be a multiple
/// of 16 and at least 64.
std::uint32_t pclmul_fold(std::uint32_t state, const unsigned char* p,
                          std::size_t size);

/// True when crc32_pclmul.cpp was compiled with PCLMULQDQ and SSE4.1.
extern const bool kPclmulBuilt;

/// True when the fold was built and this CPU runs it. Resolved once per
/// process.
bool pclmul_supported();

}  // namespace autopipe::util::crc32_kernels
