// Exhaustive check of the owned tanhf (model/kernels.h): the AVX2
// lanes must equal the scalar fdlibm_tanhf copy on all 2^32 float bit
// patterns, NaN payloads included. The test also prints how many patterns
// the scalar copy and the host libm's std::tanh disagree on. It does not
// assert that count: it is 0 under glibc 2.36's fdlibm tanhf, and any
// other libm may differ. Run with `ctest -L exhaustive` (its own label,
// not tier1); it takes tens of seconds on four cores.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "model/kernels.h"

namespace autopipe::model {
namespace {

TEST(TanhfExhaustive, Avx2LanesEqualScalarCopyOnAllBitPatterns) {
  const bool avx2 = kernels::avx2_supported();
  constexpr std::uint64_t kBlock = 1u << 16;
  constexpr std::uint64_t kBlocks = (std::uint64_t{1} << 32) / kBlock;
  std::atomic<std::uint64_t> next_block{0};
  std::atomic<std::uint64_t> lane_diffs{0}, libm_diffs{0};
  std::atomic<std::uint32_t> first_lane_diff{0xffffffffu};

  auto worker = [&] {
    std::vector<float> x(kBlock), lanes(kBlock);
    std::uint64_t lane = 0, libm = 0;
    for (std::uint64_t b; (b = next_block.fetch_add(1)) < kBlocks;) {
      const auto base = static_cast<std::uint32_t>(b * kBlock);
      for (std::uint32_t i = 0; i < kBlock; ++i) {
        x[i] = std::bit_cast<float>(base + i);
      }
      if (avx2) kernels::avx2_tanh(x.data(), lanes.data(), kBlock);
      for (std::uint32_t i = 0; i < kBlock; ++i) {
        const auto want =
            std::bit_cast<std::uint32_t>(kernels::fdlibm_tanhf(x[i]));
        if (std::bit_cast<std::uint32_t>(std::tanh(x[i])) != want) ++libm;
        if (avx2 && std::bit_cast<std::uint32_t>(lanes[i]) != want) {
          if (lane++ == 0) {
            std::uint32_t seen = first_lane_diff.load();
            while (base + i < seen &&
                   !first_lane_diff.compare_exchange_weak(seen, base + i)) {
            }
          }
        }
      }
    }
    lane_diffs += lane;
    libm_diffs += libm;
  };
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  std::printf("scalar fdlibm_tanhf vs std::tanh: %llu of 2^32 bit patterns "
              "differ\n",
              static_cast<unsigned long long>(libm_diffs.load()));
  if (!avx2) GTEST_SKIP() << "CPU has no AVX2";
  EXPECT_EQ(lane_diffs.load(), 0u)
      << "first differing input bits 0x" << std::hex << first_lane_diff.load();
}

}  // namespace
}  // namespace autopipe::model
