// Exhaustive checks of the owned tanhf and the fused GELU kernels
// (model/kernels.h). For tanhf: the AVX2
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
#include "model/ops.h"

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

// The fused GELU kernels the FFN recompute runs (gelu_with_grad): on all
// 2^32 inputs, act must equal the scalar gelu (ref::gelu) and, for each dy
// of a fixed set, dy * gelu' must equal the gelu_backward lanes (the scalar
// ref::gelu_backward where the CPU has no AVX2). Both the scalar twin and
// the AVX2 kernel are checked.
TEST(GeluExhaustive, FusedKernelsEqualGeluAndBackwardOnAllBitPatterns) {
  const bool avx2 = kernels::avx2_supported();
  // One, a negative fraction and one that overflows |dx|.
  const std::vector<float> dys = {1.0f, -0.3f, 0x1p120f};
  constexpr std::uint64_t kBlock = 1u << 16;
  constexpr std::uint64_t kBlocks = (std::uint64_t{1} << 32) / kBlock;
  std::atomic<std::uint64_t> next_block{0};
  std::atomic<std::uint64_t> diffs{0};
  std::atomic<std::uint32_t> first_diff{0xffffffffu};

  auto worker = [&] {
    Tensor x({static_cast<int>(kBlock)});
    Tensor dy({static_cast<int>(kBlock)});
    std::vector<float> y(kBlock), grad(kBlock), lanes_y(kBlock),
        lanes_grad(kBlock), dx(kBlock);
    std::uint64_t local = 0;
    auto mismatch = [&](std::uint32_t bits) {
      if (local++ == 0) {
        std::uint32_t seen = first_diff.load();
        while (bits < seen && !first_diff.compare_exchange_weak(seen, bits)) {
        }
      }
    };
    auto same = [](float a, float b) {
      return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
    };
    for (std::uint64_t b; (b = next_block.fetch_add(1)) < kBlocks;) {
      const auto base = static_cast<std::uint32_t>(b * kBlock);
      for (std::uint32_t i = 0; i < kBlock; ++i) {
        x.data()[i] = std::bit_cast<float>(base + i);
      }
      const Tensor want_y = ref::gelu(x);
      kernels::gelu_with_grad(x.data(), y.data(), grad.data(), kBlock);
      if (avx2) {
        kernels::avx2_gelu_with_grad(x.data(), lanes_y.data(),
                                     lanes_grad.data(), kBlock);
      }
      for (std::uint32_t i = 0; i < kBlock; ++i) {
        if (!same(y[i], want_y.at(i)) ||
            (avx2 && !same(lanes_y[i], want_y.at(i)))) {
          mismatch(base + i);
        }
      }
      for (const float d : dys) {
        dy.fill_(d);
        if (avx2) {
          kernels::avx2_gelu_backward(x.data(), dy.data(), dx.data(), kBlock);
        } else {
          const Tensor want = ref::gelu_backward(x, dy);
          std::copy(want.data(), want.data() + kBlock, dx.begin());
        }
        for (std::uint32_t i = 0; i < kBlock; ++i) {
          if (!same(d * grad[i], dx[i]) ||
              (avx2 && !same(d * lanes_grad[i], dx[i]))) {
            mismatch(base + i);
          }
        }
      }
    }
    diffs += local;
  };
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(diffs.load(), 0u)
      << "first differing input bits 0x" << std::hex << first_diff.load();
}

}  // namespace
}  // namespace autopipe::model
