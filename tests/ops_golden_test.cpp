// Op-level golden-gradient suite: every primitive's fast kernel must be
// BIT-identical to the retained naive reference (model::ref::) -- same
// additions in the same order per output element -- across ragged shapes
// (dimensions that are not multiples of the panel/tile sizes) and across
// thread counts. This is the contract that makes the blocked/ILP/threaded
// hot path freely substitutable for the reference everywhere: schedules,
// checkpoint resume and the consistency property all stay exact.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "model/blocks.h"
#include "model/kernels.h"
#include "model/ops.h"
#include "util/rng.h"

namespace autopipe::model {
namespace {

/// Bitwise tensor equality with a useful failure message.
void expect_bits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what << ": shape mismatch";
  if (std::memcmp(got.data(), want.data(),
                  got.numel() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < got.numel(); ++i) {
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0) {
      FAIL() << what << ": first bit difference at flat index " << i << ": "
             << got.at(i) << " vs " << want.at(i);
    }
  }
}

Tensor randn(std::vector<int> shape, util::Rng& rng) {
  return Tensor::randn(std::move(shape), rng, 0.5f);
}

/// (m, k, n) GEMM shapes straddling the panel (32), tile (4 rows; 16- and
/// 8-column steps) and b^T pack block (32) edges: exact multiples, one-off
/// raggedness in every dimension, and degenerate single-row/column cases.
/// matmul and matmul_grad_b tile n columns, matmul_grad_a tiles k.
const std::vector<std::array<int, 3>>& gemm_shapes() {
  static const std::vector<std::array<int, 3>> shapes = {
      {1, 1, 1},    {3, 5, 7},     {32, 32, 32}, {33, 17, 41},
      {31, 8, 9},   {64, 63, 65},  {7, 129, 5},  {65, 24, 16},
      {2, 16, 130}, {40, 128, 96}, {1, 15, 16},  {3, 16, 17},
      {5, 17, 15},  {1, 23, 24},   {3, 24, 25},  {5, 25, 23},
      {1, 31, 33},  {3, 33, 31},   {5, 1, 16},   {3, 1, 33},
      {1, 1, 25},   {37, 33, 23},
  };
  return shapes;
}

class OpsGoldenThreads : public testing::TestWithParam<int> {
 protected:
  void SetUp() override { set_ops_threads(GetParam()); }
  void TearDown() override { set_ops_threads(1); }
};

TEST_P(OpsGoldenThreads, MatmulFamilyBitIdenticalOnRaggedShapes) {
  util::Rng rng(7 + GetParam());
  for (const auto& [m, k, n] : gemm_shapes()) {
    SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
    const Tensor a = randn({m, k}, rng);
    const Tensor b = randn({k, n}, rng);
    const Tensor dc = randn({m, n}, rng);
    expect_bits(matmul(a, b), ref::matmul(a, b), "matmul");
    expect_bits(matmul_grad_a(dc, b), ref::matmul_grad_a(dc, b),
                "matmul_grad_a");
    expect_bits(matmul_grad_b(a, dc), ref::matmul_grad_b(a, dc),
                "matmul_grad_b");

    const Tensor bias = randn({n}, rng);
    expect_bits(linear(a, b, bias), ref::linear(a, b, bias), "linear");
    const LinearGrads fast = linear_backward(a, b, dc);
    const LinearGrads naive = ref::linear_backward(a, b, dc);
    expect_bits(fast.dx, naive.dx, "linear_backward.dx");
    expect_bits(fast.dw, naive.dw, "linear_backward.dw");
    expect_bits(fast.dbias, naive.dbias, "linear_backward.dbias");
  }
}

TEST_P(OpsGoldenThreads, ElementwiseAndRowOpsBitIdentical) {
  util::Rng rng(11 + GetParam());
  for (const auto& [rows, d] : std::vector<std::array<int, 2>>{
           {1, 1}, {3, 19}, {32, 64}, {33, 65}, {257, 3}, {96, 48}}) {
    SCOPED_TRACE(testing::Message() << rows << "x" << d);
    const Tensor x = randn({rows, d}, rng);
    const Tensor dy = randn({rows, d}, rng);
    expect_bits(gelu(x), ref::gelu(x), "gelu");
    expect_bits(gelu_backward(x, dy), ref::gelu_backward(x, dy),
                "gelu_backward");

    const Tensor gamma = randn({d}, rng);
    const Tensor beta = randn({d}, rng);
    LayerNormCache fast_cache, naive_cache;
    expect_bits(layernorm(x, gamma, beta, &fast_cache),
                ref::layernorm(x, gamma, beta, &naive_cache), "layernorm");
    expect_bits(fast_cache.normalized, naive_cache.normalized,
                "layernorm.normalized");
    ASSERT_EQ(fast_cache.inv_std.size(), naive_cache.inv_std.size());
    for (std::size_t i = 0; i < fast_cache.inv_std.size(); ++i) {
      ASSERT_EQ(std::memcmp(&fast_cache.inv_std[i], &naive_cache.inv_std[i],
                            sizeof(float)),
                0)
          << "inv_std row " << i;
    }
    const LayerNormGrads fast_g = layernorm_backward(fast_cache, gamma, dy);
    const LayerNormGrads naive_g =
        ref::layernorm_backward(naive_cache, gamma, dy);
    expect_bits(fast_g.dx, naive_g.dx, "layernorm_backward.dx");
    expect_bits(fast_g.dgamma, naive_g.dgamma, "layernorm_backward.dgamma");
    expect_bits(fast_g.dbeta, naive_g.dbeta, "layernorm_backward.dbeta");

    const Tensor probs = ref::softmax_rows(x);
    expect_bits(softmax_rows(x), probs, "softmax_rows");
    expect_bits(softmax_backward(probs, dy),
                ref::softmax_backward(probs, dy), "softmax_backward");
  }
}

TEST_P(OpsGoldenThreads, SplitBackwardPrimitivesBitIdentical) {
  // The zero-bubble B/W split's op-level contract: each split half is
  // bit-identical to its naive reference, and the two halves together
  // reproduce the fused backward's outputs exactly (the halves are the
  // fused op's own internal steps, just regrouped).
  util::Rng rng(17 + GetParam());
  for (const auto& [m, k, n] : gemm_shapes()) {
    SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
    const Tensor x = randn({m, k}, rng);
    const Tensor w = randn({k, n}, rng);
    const Tensor dy = randn({m, n}, rng);
    expect_bits(linear_backward_input(w, dy), ref::linear_backward_input(w, dy),
                "linear_backward_input");
    const LinearWeightGrads fast = linear_backward_weight(x, dy);
    const LinearWeightGrads naive = ref::linear_backward_weight(x, dy);
    expect_bits(fast.dw, naive.dw, "linear_backward_weight.dw");
    expect_bits(fast.dbias, naive.dbias, "linear_backward_weight.dbias");

    // Halves == fused, bitwise.
    const LinearGrads fused = linear_backward(x, w, dy);
    expect_bits(linear_backward_input(w, dy), fused.dx, "split dx vs fused");
    expect_bits(fast.dw, fused.dw, "split dw vs fused");
    expect_bits(fast.dbias, fused.dbias, "split dbias vs fused");
  }
  for (const auto& [rows, d] : std::vector<std::array<int, 2>>{
           {1, 1}, {3, 19}, {32, 64}, {33, 65}, {257, 3}}) {
    SCOPED_TRACE(testing::Message() << rows << "x" << d);
    const Tensor x = randn({rows, d}, rng);
    const Tensor dy = randn({rows, d}, rng);
    const Tensor gamma = randn({d}, rng);
    const Tensor beta = randn({d}, rng);
    LayerNormCache cache;
    layernorm(x, gamma, beta, &cache);
    expect_bits(layernorm_backward_input(cache, gamma, dy),
                ref::layernorm_backward_input(cache, gamma, dy),
                "layernorm_backward_input");
    const LayerNormWeightGrads fast = layernorm_backward_weight(cache, dy);
    const LayerNormWeightGrads naive =
        ref::layernorm_backward_weight(cache, dy);
    expect_bits(fast.dgamma, naive.dgamma, "layernorm_backward_weight.dgamma");
    expect_bits(fast.dbeta, naive.dbeta, "layernorm_backward_weight.dbeta");

    const LayerNormGrads fused = layernorm_backward(cache, gamma, dy);
    expect_bits(layernorm_backward_input(cache, gamma, dy), fused.dx,
                "split ln dx vs fused");
    expect_bits(fast.dgamma, fused.dgamma, "split dgamma vs fused");
    expect_bits(fast.dbeta, fused.dbeta, "split dbeta vs fused");
  }
}

TEST_P(OpsGoldenThreads, CrossEntropyBitIdenticalIncludingLossSum) {
  util::Rng rng(13 + GetParam());
  for (const int rows : {1, 5, 33, 64, 100}) {
    const int v = 37;
    SCOPED_TRACE(testing::Message() << rows << "x" << v);
    const Tensor logits = randn({rows, v}, rng);
    std::vector<int> targets(rows);
    for (int i = 0; i < rows; ++i) {
      targets[i] = static_cast<int>(rng.next_below(v));
    }
    const double scale = 1.0 / rows;
    Tensor fast_d, naive_d;
    const double fast_loss = cross_entropy(logits, targets, scale, &fast_d);
    const double naive_loss =
        ref::cross_entropy(logits, targets, scale, &naive_d);
    // The loss is a double accumulated in row order on both sides.
    EXPECT_EQ(fast_loss, naive_loss);
    expect_bits(fast_d, naive_d, "cross_entropy.dlogits");
  }
}

float from_bits(std::uint32_t u) { return std::bit_cast<float>(u); }

/// Smallest positive float v whose GELU tanh argument
/// kGeluC * (v + kGeluCubic * v^3) reaches u (positive floats order like
/// their bit patterns, and the argument is monotone in v).
float gelu_input_reaching(float u) {
  std::uint32_t lo = 0, hi = 0x7f800000u;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const float v = from_bits(mid);
    const float arg =
        kernels::kGeluC * (v + kernels::kGeluCubic * v * v * v);
    if (arg >= u) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return from_bits(lo);
}

/// Inputs at the edges of every fdlibm_tanhf branch: signed zeros, the
/// smallest denormals, +-1 ulp around the |u| = 2^-55, 1 and 22 thresholds
/// (both as tanh arguments and as GELU inputs that reach them),
/// infinities, and quiet and signalling NaNs with payloads.
std::vector<float> tanh_edge_inputs() {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> xs = {0.0f,
                           -0.0f,
                           from_bits(0x00000001u),
                           from_bits(0x80000001u),
                           kInf,
                           -kInf,
                           from_bits(0x7fc12345u),   // quiet NaN
                           from_bits(0xffc00001u),   // quiet NaN, sign set
                           from_bits(0x7f812345u),   // signalling NaN
                           from_bits(0xff800001u)};  // signalling, sign set
  for (const float threshold : {0x1p-55f, 1.0f, 22.0f}) {
    for (const float v : {threshold, gelu_input_reaching(threshold)}) {
      for (const float signed_v : {v, -v}) {
        xs.push_back(std::nextafter(signed_v, -kInf));
        xs.push_back(signed_v);
        xs.push_back(std::nextafter(signed_v, kInf));
      }
    }
  }
  return xs;
}

TEST_P(OpsGoldenThreads, GeluBitIdenticalOnEdgeInputsAndRemainderLanes) {
  // The fast gelu/gelu_backward run the AVX2 lanes where the CPU has them;
  // ref:: runs the scalar fdlibm_tanhf copy. Lengths around the 8-lane
  // width put every edge input in a remainder lane; the last tensor of
  // each length holds nothing but edge inputs.
  util::Rng rng(13 + GetParam());
  const std::vector<float> edges = tanh_edge_inputs();
  for (const int n : {1, 7, 8, 9, 257}) {
    for (std::size_t e = 0; e <= edges.size(); ++e) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " edge " << e);
      Tensor x = randn({n}, rng);
      const Tensor dy = randn({n}, rng);
      if (e < edges.size()) {
        x.data()[n - 1] = edges[e];
      } else {
        for (int i = 0; i < n; ++i) x.data()[i] = edges[i % edges.size()];
      }
      expect_bits(gelu(x), ref::gelu(x), "gelu");
      expect_bits(gelu_backward(x, dy), ref::gelu_backward(x, dy),
                  "gelu_backward");
      Tensor grad;
      expect_bits(gelu_with_grad(x, &grad), ref::gelu(x), "gelu_with_grad");
      Tensor dx = dy;
      dx.mul_(grad);
      expect_bits(dx, ref::gelu_backward(x, dy), "dy * gelu_with_grad's grad");
    }
  }
}

/// The FFN block's backward recomputes gelu and takes gelu' from the same
/// tanh (gelu_with_grad). Against the block run with fast ops off -- every
/// primitive through ref:: -- dx and every parameter gradient must match
/// bit for bit, fused and split (backward_input + backward_weight). Token
/// x 4*hidden counts leave remainder lanes and ragged 256-element chunks.
TEST_P(OpsGoldenThreads, FfnBackwardBitIdenticalToReference) {
  for (const auto& [tokens, hidden] :
       std::vector<std::array<int, 2>>{{3, 5}, {13, 7}, {9, 16}, {64, 64}}) {
    SCOPED_TRACE(testing::Message() << tokens << " tokens x " << hidden);
    util::Rng init_fast(31), init_ref(31), data(37 + GetParam());
    ResidualFFNBlock fast(hidden, init_fast), naive(hidden, init_ref);
    const Tensor x = randn({tokens, hidden}, data);
    const Tensor dy = randn({tokens, hidden}, data);
    auto expect_grads = [&](const char* what) {
      for (std::size_t p = 0; p < fast.params().size(); ++p) {
        SCOPED_TRACE(fast.params()[p].name);
        expect_bits(fast.params()[p].grad, naive.params()[p].grad, what);
      }
    };

    set_fast_ops(false);
    const Tensor want = naive.backward(x, dy);
    set_fast_ops(true);
    expect_bits(fast.backward(x, dy), want, "backward dx");
    expect_grads("backward grads");

    std::unique_ptr<Block::BwState> state_fast, state_ref;
    set_fast_ops(false);
    const Tensor want_split = naive.backward_input(x, dy, &state_ref);
    naive.backward_weight(*state_ref);
    set_fast_ops(true);
    expect_bits(fast.backward_input(x, dy, &state_fast), want_split,
                "backward_input dx");
    fast.backward_weight(*state_fast);
    expect_grads("backward_weight grads");
  }
}

// 1 = inline, 2 = smallest real fan-out, 0 = auto (hardware concurrency).
// Bit-identity must hold for every choice because panels are fixed-size
// and never derived from the worker count.
INSTANTIATE_TEST_SUITE_P(Threads, OpsGoldenThreads, testing::Values(1, 2, 0));

TEST(OpsGolden, DisablingFastOpsRoutesThroughReference) {
  util::Rng rng(3);
  const Tensor a = randn({9, 10}, rng);
  const Tensor b = randn({10, 11}, rng);
  set_fast_ops(false);
  const Tensor off = matmul(a, b);
  set_fast_ops(true);
  expect_bits(off, ref::matmul(a, b), "matmul with fast ops off");
  EXPECT_TRUE(fast_ops_enabled());
}

TEST(OpsGolden, Avx2TanhMatchesScalarCopyOnSampledBitPatterns) {
  // Every 251st bit pattern (a prime stride, so the samples cover every
  // exponent with varied mantissas) plus the branch-edge inputs. All 2^32
  // patterns: tests/tanhf_exhaustive_test.cpp (ctest -L exhaustive).
  if (!kernels::avx2_supported()) GTEST_SKIP() << "CPU has no AVX2";
  auto check = [](const std::vector<float>& x) {
    std::vector<float> y(x.size());
    kernels::avx2_tanh(x.data(), y.data(), static_cast<int>(x.size()));
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float want = kernels::fdlibm_tanhf(x[i]);
      ASSERT_EQ(std::bit_cast<std::uint32_t>(y[i]),
                std::bit_cast<std::uint32_t>(want))
          << "input bits 0x" << std::hex
          << std::bit_cast<std::uint32_t>(x[i]);
    }
  };
  check(tanh_edge_inputs());
  // Blocks of an odd length, so every block ends in a remainder lane.
  constexpr std::size_t kBlock = 4093;
  std::vector<float> x;
  x.reserve(kBlock);
  for (std::uint64_t u = 0; u <= 0xffffffffu; u += 251) {
    x.push_back(from_bits(static_cast<std::uint32_t>(u)));
    if (x.size() == kBlock) {
      check(x);
      if (HasFatalFailure()) return;
      x.clear();
    }
  }
  check(x);
}

// Both GEMM tiles, called directly: dispatch runs only one of them on any
// given CPU, so on AVX2 hosts the public ops never reach the baseline.
using GemmTile = void (*)(const kernels::StridedGemm&, int, int);

class GemmTileGolden : public testing::TestWithParam<bool> {};

TEST_P(GemmTileGolden, AllThreeProductsBitIdenticalToReference) {
  const bool avx2 = GetParam();
  if (avx2 && !kernels::avx2_supported()) GTEST_SKIP() << "CPU has no AVX2";
  const GemmTile tile = avx2 ? kernels::avx2_gemm_tile : kernels::gemm_tile;
  util::Rng rng(29);
  for (const auto& [m, k, n] : gemm_shapes()) {
    SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
    const Tensor a = randn({m, k}, rng);
    const Tensor b = randn({k, n}, rng);
    const Tensor dc = randn({m, n}, rng);

    Tensor c({m, n});
    tile({a.data(), k, 1, b.data(), c.data(), k, n}, 0, m);
    expect_bits(c, ref::matmul(a, b), "matmul");

    Tensor bt({n, k});
    for (int l = 0; l < k; ++l) {
      for (int j = 0; j < n; ++j) bt.at(j * k + l) = b.at(l * n + j);
    }
    Tensor da({m, k});
    tile({dc.data(), n, 1, bt.data(), da.data(), n, k}, 0, m);
    expect_bits(da, ref::matmul_grad_a(dc, b), "matmul_grad_a");

    Tensor db({k, n});
    tile({a.data(), 1, k, dc.data(), db.data(), m, n}, 0, k);
    expect_bits(db, ref::matmul_grad_b(a, dc), "matmul_grad_b");
  }
}

INSTANTIATE_TEST_SUITE_P(Tiles, GemmTileGolden, testing::Values(false, true),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "avx2" : "baseline";
                         });

// Both fused GELU kernels, called directly: dispatch runs only one of them
// on any given CPU.
using GeluWithGrad = void (*)(const float*, float*, float*, int);

class GeluWithGradGolden : public testing::TestWithParam<bool> {};

TEST_P(GeluWithGradGolden, MatchesGeluAndBackwardOnEdgeInputs) {
  const bool avx2 = GetParam();
  if (avx2 && !kernels::avx2_supported()) GTEST_SKIP() << "CPU has no AVX2";
  const GeluWithGrad kernel =
      avx2 ? kernels::avx2_gelu_with_grad : kernels::gelu_with_grad;
  std::vector<float> edges = tanh_edge_inputs();
  util::Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    edges.push_back(static_cast<float>(rng.uniform(-12.0, 12.0)));
  }
  // Windows of every length around the lane width walk each input through
  // full and remainder lanes.
  for (const int n : {1, 7, 8, 9, static_cast<int>(edges.size())}) {
    for (std::size_t start = 0; start < edges.size(); start += n) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " start " << start);
      Tensor x({n});
      Tensor dy({n});
      for (int i = 0; i < n; ++i) {
        x.data()[i] = edges[(start + i) % edges.size()];
        dy.data()[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
      }
      Tensor y({n});
      Tensor grad({n});
      kernel(x.data(), y.data(), grad.data(), n);
      expect_bits(y, ref::gelu(x), "gelu");
      Tensor dx = dy;
      dx.mul_(grad);
      expect_bits(dx, ref::gelu_backward(x, dy), "dy * gelu'");
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, GeluWithGradGolden,
                         testing::Values(false, true),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "avx2" : "scalar";
                         });

TEST(OpsGolden, EmbeddingOpsAreSingleImplementation) {
  // embedding_lookup/backward have one implementation (gather/scatter has
  // no blocking to diverge); this pins their semantics: lookup copies rows,
  // backward accumulates in ascending id-slot order.
  util::Rng rng(5);
  const Tensor table = randn({6, 4}, rng);
  const std::vector<int> ids = {3, 0, 5, 3};
  const Tensor out = embedding_lookup(table, ids);
  ASSERT_EQ(out.dim(0), 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(out.at(i * 4 + j), table.at(ids[i] * 4 + j));
    }
  }
  const Tensor dy = randn({4, 4}, rng);
  Tensor dtable({6, 4});
  embedding_backward(ids, dy, &dtable);
  // Row 3 was hit twice: the sum must be the two contributions in order.
  for (int j = 0; j < 4; ++j) {
    float want = 0;
    want += dy.at(0 * 4 + j);
    want += dy.at(3 * 4 + j);
    EXPECT_EQ(dtable.at(3 * 4 + j), want);
  }
}

}  // namespace
}  // namespace autopipe::model
