#include "util/checksum.h"

#include <array>
#include <cstring>

#include "util/crc32_kernels.h"

namespace autopipe::util {

namespace {

// Slicing-by-8 tables: tables[0] is the classic byte-at-a-time table for
// the reflected polynomial 0xEDB88320; tables[k] advances a byte's
// contribution k extra positions, so eight bytes fold into the state with
// eight independent lookups per iteration instead of eight dependent ones.
std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

const std::array<std::array<std::uint32_t, 256>, 8>& tables() {
  static const std::array<std::array<std::uint32_t, 256>, 8> t = make_tables();
  return t;
}

constexpr bool little_endian() {
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__)
  return __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__;
#else
  return false;
#endif
}

}  // namespace

namespace crc32_kernels {

std::uint32_t slice8(std::uint32_t state, const unsigned char* p,
                     std::size_t size) {
  const auto& t = tables();
  std::uint32_t c = state;
  if (little_endian()) {
    // Hot loop for the bulk payloads (tensors, checkpoint records): the
    // word loads assume the state's bytes line up with memory order, hence
    // the little-endian gate; other hosts take the byte loop below.
    while (size >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
      p += 8;
      size -= 8;
    }
  }
  for (std::size_t i = 0; i < size; ++i) {
    c = t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

bool pclmul_supported() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return kPclmulBuilt && __builtin_cpu_supports("pclmul") != 0 &&
           __builtin_cpu_supports("sse4.1") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

}  // namespace crc32_kernels

void Crc32::update(std::string_view bytes) {
  update(bytes.data(), bytes.size());
}

void Crc32::update(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  // The fold takes whole 16-byte blocks from 64 bytes up; slicing-by-8
  // finishes the tail and covers short inputs and other CPUs.
  if (size >= 64 && crc32_kernels::pclmul_supported()) {
    const std::size_t bulk = size & ~static_cast<std::size_t>(15);
    state_ = crc32_kernels::pclmul_fold(state_, p, bulk);
    p += bulk;
    size -= bulk;
  }
  state_ = crc32_kernels::slice8(state_, p, size);
}

std::uint32_t crc32(std::string_view bytes) {
  Crc32 c;
  c.update(bytes);
  return c.value();
}

std::string crc32_hex(std::uint32_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xFu];
    value >>= 4;
  }
  return out;
}

}  // namespace autopipe::util
