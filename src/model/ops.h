// Forward and backward primitive ops over 2-D views.
//
// Activations between transformer blocks are [tokens, features] matrices
// (batch and sequence flattened); every primitive here has a hand-written
// backward so the runtime's pipelined gradients can be checked exactly
// against the single-process reference.
//
// Two implementations live behind each primitive:
//
//  - model::ref:: -- the retained naive reference: plain loops, one
//    accumulator per output element, summation in index order. This is the
//    semantic ground truth of the op-level golden tests.
//  - the default fast path -- register-tiled, lane-vectorised kernels that
//    fan row panels out over a shared thread pool. The three GEMMs share
//    one strided tile (model/kernels.h; AVX2 when the CPU has it, picked
//    once per process), matmul_grad_a by packing B^T on every call. The
//    kernels perform, for every output element, the *same additions in the
//    same order* as the reference (one lane holds one element's
//    accumulator, panels only re-tile the iteration space, and each output
//    element is owned by exactly one task), so results are bit-identical
//    to ref:: at every thread count. tests/ops_golden_test.cpp enforces
//    this for every primitive, including ragged panel-edge shapes.
//
// set_fast_ops(false) routes the public entry points through ref::, which
// is how the naive-vs-fast end-to-end equivalence sweeps and the hot-path
// benchmark baseline run.
#pragma once

#include <span>

#include "model/tensor.h"

namespace autopipe::model {

// -------------------------------------------------------- hot-path config

/// Worker threads the fast kernels fan out over: 0 = auto (hardware
/// concurrency), 1 = run inline (no pool), n = a shared pool of n workers.
/// Results are bit-identical for every setting. Not safe to call while ops
/// are executing on other threads (reconfigures the shared pool).
void set_ops_threads(int threads);
int ops_threads();

/// Toggles the fast kernels (default on). Off routes every primitive
/// through the naive model::ref:: implementations.
void set_fast_ops(bool enabled);
bool fast_ops_enabled();

// ------------------------------------------------------------- primitives

/// C[m,n] = A[m,k] * B[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// dA = dC * B^T.
Tensor matmul_grad_a(const Tensor& dc, const Tensor& b);
/// dB = A^T * dC.
Tensor matmul_grad_b(const Tensor& a, const Tensor& dc);

/// y = x*W + bias (bias broadcast over rows).
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& bias);
struct LinearGrads {
  Tensor dx, dw, dbias;
};
LinearGrads linear_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy);

// Split backward (zero-bubble B/W decomposition): linear_backward's three
// outputs factor cleanly into an input half (dx, needed immediately to keep
// the pipeline draining) and a weight half (dw/dbias, deferrable into
// bubbles). Each half performs exactly the additions the fused form does
// for its outputs, so
//   {linear_backward_input, linear_backward_weight} == linear_backward
// bit for bit -- the op-level golden tests enforce this.
struct LinearWeightGrads {
  Tensor dw, dbias;
};
/// dx = dy * W^T.
Tensor linear_backward_input(const Tensor& w, const Tensor& dy);
/// dw = x^T * dy, dbias = column sums of dy (ascending-row order).
LinearWeightGrads linear_backward_weight(const Tensor& x, const Tensor& dy);

/// GELU, tanh approximation (as GPT-2 uses). tanh is the library's own
/// copy of glibc 2.36's fdlibm tanhf (model/kernels.h), so results do
/// not depend on the host libm. The fast path runs 8-lane AVX2 kernels from
/// a separately compiled translation unit when the CPU has AVX2 (checked
/// once per process) and the scalar copy otherwise; both are bit-identical
/// to ref::.
Tensor gelu(const Tensor& x);
Tensor gelu_backward(const Tensor& x, const Tensor& dy);
/// gelu(x), and gelu'(x) into *grad, from one tanh per element: for any
/// dy, gelu_backward(x, dy) equals dy.mul_(*grad) bit for bit. A backward
/// pass that recomputes the activation gets both for one tanh pass.
Tensor gelu_with_grad(const Tensor& x, Tensor* grad);

/// Per-row layer norm with scale gamma and shift beta (both [features]).
struct LayerNormCache {
  Tensor normalized;          ///< (x - mean) / std, per row
  std::vector<float> inv_std; ///< 1/std per row
};
Tensor layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 LayerNormCache* cache);
struct LayerNormGrads {
  Tensor dx, dgamma, dbeta;
};
LayerNormGrads layernorm_backward(const LayerNormCache& cache,
                                  const Tensor& gamma, const Tensor& dy);

// Split layer-norm backward. dx depends only on (cache, gamma, dy) and the
// dgamma/dbeta accumulation only on (cache, dy), so the two halves are
// independent; each runs the fused kernel's loops for its outputs verbatim
// (bit-identical, golden-tested).
struct LayerNormWeightGrads {
  Tensor dgamma, dbeta;
};
Tensor layernorm_backward_input(const LayerNormCache& cache,
                                const Tensor& gamma, const Tensor& dy);
LayerNormWeightGrads layernorm_backward_weight(const LayerNormCache& cache,
                                               const Tensor& dy);

/// Row-wise softmax (optionally causal when rows index query positions of a
/// [s, s] score matrix).
Tensor softmax_rows(const Tensor& scores);
/// dScores from dProbs with probs = softmax(scores):
/// dS = P o (dP - rowsum(dP o P)).
Tensor softmax_backward(const Tensor& probs, const Tensor& dprobs);

/// Mean-free cross entropy: loss = -sum_i log softmax(logits_i)[target_i]
/// * scale. Returns loss and writes dlogits (same scale) -- using an
/// explicit scale (1 / total mini-batch tokens) makes micro-batch gradients
/// add up to exactly the full-batch gradients.
double cross_entropy(const Tensor& logits, std::span<const int> targets,
                     double scale, Tensor* dlogits);

/// Gather rows of table[vocab, h] by ids.
Tensor embedding_lookup(const Tensor& table, std::span<const int> ids);
/// Scatter-add dy rows back into dtable.
void embedding_backward(std::span<const int> ids, const Tensor& dy,
                        Tensor* dtable);

// ----------------------------------------- retained naive reference (ref)

/// The naive single-thread implementations the fast kernels are golden-
/// tested against, bit for bit. Summation order per output element is the
/// contract: ascending index, one accumulator.
namespace ref {

Tensor matmul(const Tensor& a, const Tensor& b);
Tensor matmul_grad_a(const Tensor& dc, const Tensor& b);
Tensor matmul_grad_b(const Tensor& a, const Tensor& dc);
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& bias);
LinearGrads linear_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy);
Tensor linear_backward_input(const Tensor& w, const Tensor& dy);
LinearWeightGrads linear_backward_weight(const Tensor& x, const Tensor& dy);
Tensor gelu(const Tensor& x);
Tensor gelu_backward(const Tensor& x, const Tensor& dy);
Tensor layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 LayerNormCache* cache);
LayerNormGrads layernorm_backward(const LayerNormCache& cache,
                                  const Tensor& gamma, const Tensor& dy);
Tensor layernorm_backward_input(const LayerNormCache& cache,
                                const Tensor& gamma, const Tensor& dy);
LayerNormWeightGrads layernorm_backward_weight(const LayerNormCache& cache,
                                               const Tensor& dy);
Tensor softmax_rows(const Tensor& scores);
Tensor softmax_backward(const Tensor& probs, const Tensor& dprobs);
double cross_entropy(const Tensor& logits, std::span<const int> targets,
                     double scale, Tensor* dlogits);

}  // namespace ref

}  // namespace autopipe::model
