// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) for record-level
// integrity checks in the checkpoint subsystem and the profile cache.
//
// Not a cryptographic digest: it detects torn writes, bit flips and short
// reads -- the storage failure modes DESIGN.md §7 enumerates -- not an
// adversary. Incremental updates let large payloads be hashed in chunks.
// Updates of 64 bytes and more fold with PCLMULQDQ when the CPU has it;
// slicing-by-8 takes the rest (util/crc32_kernels.h). Both give the same
// bits.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace autopipe::util {

class Crc32 {
 public:
  /// Feeds `bytes` into the running checksum.
  void update(std::string_view bytes);
  void update(const void* data, std::size_t size);
  /// Final checksum of everything fed so far (callable repeatedly).
  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience: crc32 of a whole buffer.
std::uint32_t crc32(std::string_view bytes);

/// Fixed-width lowercase hex ("deadbeef") -- the on-disk spelling used in
/// checkpoint manifests and profile-cache headers.
std::string crc32_hex(std::uint32_t value);

}  // namespace autopipe::util
