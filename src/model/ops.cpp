#include "model/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "model/kernels.h"
#include "util/thread_pool.h"

namespace autopipe::model {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

// ------------------------------------------------------- hot-path config
//
// The fast kernels share one process-wide pool, created lazily so programs
// that never touch the tensor hot path pay nothing. threads == 1 keeps the
// pool null and every kernel inline -- the bitwise result is the same
// either way, because panel boundaries never change any per-element
// summation order.

std::atomic<bool> g_fast{true};
std::mutex g_pool_mu;
std::atomic<util::ThreadPool*> g_pool{nullptr};
std::atomic<int> g_resolved{0};  // 0 = pool not yet resolved
int g_requested = 0;             // guarded by g_pool_mu

util::ThreadPool* ops_pool() {
  if (g_resolved.load(std::memory_order_acquire) != 0) {
    return g_pool.load(std::memory_order_acquire);
  }
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_resolved.load(std::memory_order_acquire) == 0) {
    const int n = util::resolve_threads(g_requested);
    if (n > 1) {
      g_pool.store(new util::ThreadPool(n), std::memory_order_release);
    }
    g_resolved.store(n, std::memory_order_release);
  }
  return g_pool.load(std::memory_order_acquire);
}

/// Rows per parallel task. Fixed -- never derived from the worker count --
/// so the panel grid (and thus which task owns which output row) is
/// identical for every thread count.
constexpr int kPanelRows = 32;
/// Side of the square blocks matmul_grad_a's b^T pack copies at a time: a
/// block's source rows and destination rows both stay in L1.
constexpr int kTransposeBlock = 32;
/// Below this many flops a kernel runs inline: pool handoff costs more
/// than the loop (attention's per-head [s,s] matmuls live here).
constexpr double kMinParallelFlops = 1 << 18;

/// Runs fn(r0, r1) over [0, rows) split into kPanelRows panels, fanned out
/// over the shared pool when the work is worth it. fn must touch only rows
/// in its panel.
void panel_for(int rows, double flops,
               const std::function<void(int, int)>& fn) {
  util::ThreadPool* pool = ops_pool();
  const int panels = (rows + kPanelRows - 1) / kPanelRows;
  if (pool == nullptr || panels <= 1 || flops < kMinParallelFlops) {
    fn(0, rows);
    return;
  }
  util::parallel_for(pool, panels, [&](int p) {
    const int r0 = p * kPanelRows;
    fn(r0, std::min(rows, r0 + kPanelRows));
  });
}

/// C = A*B for g's strided A over `rows` output rows, with the GEMM tile
/// this CPU runs (picked once per process) on each row panel.
void strided_gemm(const kernels::StridedGemm& g, int rows) {
  static const auto tile = kernels::avx2_supported()
                               ? &kernels::avx2_gemm_tile
                               : &kernels::gemm_tile;
  panel_for(rows, 2.0 * rows * g.depth * g.n,
            [&](int r0, int r1) { tile(g, r0, r1); });
}

/// b^T for a row-major [k, n] b, copied in kTransposeBlock squares.
Tensor transposed(const Tensor& b) {
  const int k = b.dim(0), n = b.dim(1);
  Tensor bt = Tensor::uninitialized({n, k});
  const float* pb = b.data();
  float* pbt = bt.data();
  for (int l0 = 0; l0 < k; l0 += kTransposeBlock) {
    const int l1 = std::min(k, l0 + kTransposeBlock);
    for (int j0 = 0; j0 < n; j0 += kTransposeBlock) {
      const int j1 = std::min(n, j0 + kTransposeBlock);
      for (int l = l0; l < l1; ++l) {
        for (int j = j0; j < j1; ++j) {
          pbt[static_cast<std::size_t>(j) * k + l] =
              pb[static_cast<std::size_t>(l) * n + j];
        }
      }
    }
  }
  return bt;
}

// GELU's per-element math; gelu_avx2.cpp repeats it in lanes, bit for bit.
using kernels::kGeluC;
using kernels::kGeluCubic;

float gelu_one(float v) {
  return 0.5f * v *
         (1.0f + kernels::fdlibm_tanhf(kGeluC * (v + kGeluCubic * v * v * v)));
}

/// gelu'(v) from t = tanh(u(v)).
float gelu_grad_from_tanh(float v, float t) {
  const float du = kGeluC * (1.0f + 3.0f * kGeluCubic * v * v);
  return 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
}

float gelu_grad_one(float v) {
  const float u = kGeluC * (v + kGeluCubic * v * v * v);
  return gelu_grad_from_tanh(v, kernels::fdlibm_tanhf(u));
}

void layernorm_row(const float* row, const float* gamma, const float* beta,
                   int d, float* norm_out, float* y_out, float* inv_out) {
  constexpr float kEps = 1e-5f;
  float mean = 0;
  for (int j = 0; j < d; ++j) mean += row[j];
  mean /= d;
  float var = 0;
  for (int j = 0; j < d; ++j) var += (row[j] - mean) * (row[j] - mean);
  var /= d;
  const float inv = 1.0f / std::sqrt(var + kEps);
  for (int j = 0; j < d; ++j) {
    const float norm = (row[j] - mean) * inv;
    if (norm_out) norm_out[j] = norm;
    y_out[j] = norm * gamma[j] + beta[j];
  }
  if (inv_out) *inv_out = inv;
}

void softmax_row(const float* row, int n, float* out) {
  float mx = row[0];
  for (int j = 1; j < n; ++j) mx = std::max(mx, row[j]);
  float denom = 0;
  for (int j = 0; j < n; ++j) {
    const float e = std::exp(row[j] - mx);
    out[j] = e;
    denom += e;
  }
  for (int j = 0; j < n; ++j) out[j] /= denom;
}

/// Per-row cross entropy: returns the row's scaled loss term and fills
/// dlogits (when non-null) -- the shared body of ref:: and the fast path.
double cross_entropy_row(const float* row, int v, int target, double scale,
                         float* dlogits_row) {
  float mx = row[0];
  for (int j = 1; j < v; ++j) mx = std::max(mx, row[j]);
  double denom = 0;
  for (int j = 0; j < v; ++j) {
    denom += std::exp(static_cast<double>(row[j]) - mx);
  }
  const double log_denom = std::log(denom) + mx;
  if (dlogits_row) {
    for (int j = 0; j < v; ++j) {
      const double p = std::exp(static_cast<double>(row[j]) - log_denom);
      dlogits_row[j] =
          static_cast<float>((p - (j == target ? 1.0 : 0.0)) * scale);
    }
  }
  return (log_denom - row[target]) * scale;
}

void check_matmul(const Tensor& a, const Tensor& b) {
  require(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0),
          "matmul: shape mismatch");
}

void check_grad_a(const Tensor& dc, const Tensor& b) {
  require(dc.rank() == 2 && b.rank() == 2 && dc.dim(1) == b.dim(1),
          "matmul_grad_a: shape mismatch");
}

void check_grad_b(const Tensor& a, const Tensor& dc) {
  require(a.rank() == 2 && dc.rank() == 2 && a.dim(0) == dc.dim(0),
          "matmul_grad_b: shape mismatch");
}

void check_cross_entropy(const Tensor& logits, std::span<const int> targets) {
  require(logits.rank() == 2 &&
              logits.dim(0) == static_cast<int>(targets.size()),
          "cross_entropy: shape");
  const int v = logits.dim(1);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    require(targets[i] >= 0 && targets[i] < v, "cross_entropy: target range");
  }
}

}  // namespace

void set_ops_threads(int threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_requested = threads;
  util::ThreadPool* old = g_pool.exchange(nullptr, std::memory_order_acq_rel);
  g_resolved.store(0, std::memory_order_release);
  delete old;  // joins idle workers; callers must be quiescent
}

int ops_threads() {
  const int resolved = g_resolved.load(std::memory_order_acquire);
  if (resolved != 0) return resolved;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  return util::resolve_threads(g_requested);
}

void set_fast_ops(bool enabled) {
  g_fast.store(enabled, std::memory_order_release);
}

bool fast_ops_enabled() { return g_fast.load(std::memory_order_acquire); }

// ------------------------------------------------------ naive references
//
// Plain loops, ascending-index summation, one accumulator per output
// element. The fast kernels below must reproduce these bit for bit.

namespace ref {

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_matmul(a, b);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int i = 0; i < m; ++i) {
    for (int l = 0; l < k; ++l) {
      const float av = pa[i * k + l];
      const float* brow = pb + l * n;
      float* crow = pc + i * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor matmul_grad_a(const Tensor& dc, const Tensor& b) {
  check_grad_a(dc, b);
  const int m = dc.dim(0), n = dc.dim(1), k = b.dim(0);
  Tensor da({m, k});
  for (int i = 0; i < m; ++i) {
    for (int l = 0; l < k; ++l) {
      float acc = 0;
      const float* dcrow = dc.data() + i * n;
      const float* brow = b.data() + l * n;
      for (int j = 0; j < n; ++j) acc += dcrow[j] * brow[j];
      da.data()[i * k + l] = acc;
    }
  }
  return da;
}

Tensor matmul_grad_b(const Tensor& a, const Tensor& dc) {
  check_grad_b(a, dc);
  const int m = a.dim(0), k = a.dim(1), n = dc.dim(1);
  Tensor db({k, n});
  for (int i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    const float* dcrow = dc.data() + i * n;
    for (int l = 0; l < k; ++l) {
      const float av = arow[l];
      float* dbrow = db.data() + l * n;
      for (int j = 0; j < n; ++j) dbrow[j] += av * dcrow[j];
    }
  }
  return db;
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor& bias) {
  Tensor y = ref::matmul(x, w);
  require(bias.rank() == 1 && bias.dim(0) == y.dim(1), "linear: bias shape");
  const int n = y.dim(1);
  for (int i = 0; i < y.dim(0); ++i) {
    float* row = y.data() + i * n;
    for (int j = 0; j < n; ++j) row[j] += bias.at(j);
  }
  return y;
}

LinearGrads linear_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy) {
  LinearGrads g;
  g.dx = ref::matmul_grad_a(dy, w);
  g.dw = ref::matmul_grad_b(x, dy);
  g.dbias = Tensor({dy.dim(1)});
  for (int i = 0; i < dy.dim(0); ++i) {
    const float* row = dy.data() + i * dy.dim(1);
    for (int j = 0; j < dy.dim(1); ++j) g.dbias.data()[j] += row[j];
  }
  return g;
}

Tensor linear_backward_input(const Tensor& w, const Tensor& dy) {
  return ref::matmul_grad_a(dy, w);
}

LinearWeightGrads linear_backward_weight(const Tensor& x, const Tensor& dy) {
  LinearWeightGrads g;
  g.dw = ref::matmul_grad_b(x, dy);
  g.dbias = Tensor({dy.dim(1)});
  for (int i = 0; i < dy.dim(0); ++i) {
    const float* row = dy.data() + i * dy.dim(1);
    for (int j = 0; j < dy.dim(1); ++j) g.dbias.data()[j] += row[j];
  }
  return g;
}

Tensor gelu(const Tensor& x) {
  Tensor y(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) y.data()[i] = gelu_one(x.at(i));
  return y;
}

Tensor gelu_backward(const Tensor& x, const Tensor& dy) {
  require(x.same_shape(dy), "gelu_backward: shape mismatch");
  Tensor dx(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) {
    dx.data()[i] = dy.at(i) * gelu_grad_one(x.at(i));
  }
  return dx;
}

Tensor layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 LayerNormCache* cache) {
  require(x.rank() == 2, "layernorm: rank");
  const int rows = x.dim(0), d = x.dim(1);
  require(gamma.dim(0) == d && beta.dim(0) == d, "layernorm: params");
  Tensor y({rows, d});
  if (cache) {
    cache->normalized = Tensor({rows, d});
    cache->inv_std.assign(rows, 0.0f);
  }
  for (int i = 0; i < rows; ++i) {
    layernorm_row(x.data() + i * d, gamma.data(), beta.data(), d,
                  cache ? cache->normalized.data() + i * d : nullptr,
                  y.data() + i * d, cache ? &cache->inv_std[i] : nullptr);
  }
  return y;
}

LayerNormGrads layernorm_backward(const LayerNormCache& cache,
                                  const Tensor& gamma, const Tensor& dy) {
  const int rows = dy.dim(0), d = dy.dim(1);
  LayerNormGrads g;
  g.dx = Tensor({rows, d});
  g.dgamma = Tensor({d});
  g.dbeta = Tensor({d});
  for (int i = 0; i < rows; ++i) {
    const float* dyr = dy.data() + i * d;
    const float* nr = cache.normalized.data() + i * d;
    float sum_dn = 0, sum_dnn = 0;
    for (int j = 0; j < d; ++j) {
      const float dnorm = dyr[j] * gamma.at(j);
      sum_dn += dnorm;
      sum_dnn += dnorm * nr[j];
      g.dgamma.data()[j] += dyr[j] * nr[j];
      g.dbeta.data()[j] += dyr[j];
    }
    const float inv = cache.inv_std[i];
    for (int j = 0; j < d; ++j) {
      const float dnorm = dyr[j] * gamma.at(j);
      g.dx.data()[i * d + j] =
          inv * (dnorm - sum_dn / d - nr[j] * sum_dnn / d);
    }
  }
  return g;
}

Tensor layernorm_backward_input(const LayerNormCache& cache,
                                const Tensor& gamma, const Tensor& dy) {
  const int rows = dy.dim(0), d = dy.dim(1);
  Tensor dx({rows, d});
  for (int i = 0; i < rows; ++i) {
    const float* dyr = dy.data() + i * d;
    const float* nr = cache.normalized.data() + i * d;
    float sum_dn = 0, sum_dnn = 0;
    for (int j = 0; j < d; ++j) {
      const float dnorm = dyr[j] * gamma.at(j);
      sum_dn += dnorm;
      sum_dnn += dnorm * nr[j];
    }
    const float inv = cache.inv_std[i];
    for (int j = 0; j < d; ++j) {
      const float dnorm = dyr[j] * gamma.at(j);
      dx.data()[i * d + j] = inv * (dnorm - sum_dn / d - nr[j] * sum_dnn / d);
    }
  }
  return dx;
}

LayerNormWeightGrads layernorm_backward_weight(const LayerNormCache& cache,
                                               const Tensor& dy) {
  const int rows = dy.dim(0), d = dy.dim(1);
  LayerNormWeightGrads g;
  g.dgamma = Tensor({d});
  g.dbeta = Tensor({d});
  for (int i = 0; i < rows; ++i) {
    const float* dyr = dy.data() + i * d;
    const float* nr = cache.normalized.data() + i * d;
    for (int j = 0; j < d; ++j) {
      g.dgamma.data()[j] += dyr[j] * nr[j];
      g.dbeta.data()[j] += dyr[j];
    }
  }
  return g;
}

Tensor softmax_rows(const Tensor& scores) {
  require(scores.rank() == 2, "softmax: rank");
  const int rows = scores.dim(0), n = scores.dim(1);
  Tensor probs({rows, n});
  for (int i = 0; i < rows; ++i) {
    softmax_row(scores.data() + i * n, n, probs.data() + i * n);
  }
  return probs;
}

Tensor softmax_backward(const Tensor& probs, const Tensor& dprobs) {
  require(probs.same_shape(dprobs), "softmax_backward: shape");
  const int rows = probs.dim(0), n = probs.dim(1);
  Tensor ds({rows, n});
  for (int i = 0; i < rows; ++i) {
    const float* p = probs.data() + i * n;
    const float* dp = dprobs.data() + i * n;
    float dot = 0;
    for (int j = 0; j < n; ++j) dot += p[j] * dp[j];
    for (int j = 0; j < n; ++j) ds.data()[i * n + j] = p[j] * (dp[j] - dot);
  }
  return ds;
}

double cross_entropy(const Tensor& logits, std::span<const int> targets,
                     double scale, Tensor* dlogits) {
  check_cross_entropy(logits, targets);
  const int rows = logits.dim(0), v = logits.dim(1);
  if (dlogits) *dlogits = Tensor({rows, v});
  double loss = 0;
  for (int i = 0; i < rows; ++i) {
    loss += cross_entropy_row(logits.data() + i * v, v, targets[i], scale,
                              dlogits ? dlogits->data() + i * v : nullptr);
  }
  return loss;
}

}  // namespace ref

// ----------------------------------------------------------- fast kernels
//
// Bit-for-bit contract with ref:: -- for every output element the same
// multiplications and additions happen in the same (ascending-index)
// order; the kernels only (a) re-tile the loop nest so each B/dC tile is
// reused across a whole row panel, (b) unroll across *independent*
// accumulator chains so the FP-add latency of one chain overlaps the next
// (the naive dot product is a single serial dependency chain -- the main
// single-core win), and (c) hand disjoint row panels to pool workers.

namespace kernels {

namespace {

/// Rows [i, i+R) x columns [j, j+8) of C: R*8 accumulators held across the
/// whole reduction, so each B element loaded feeds R rows. With SSE2 each
/// lane holds one output element's accumulator -- packed single-precision
/// ops round per lane like mulss/addss and nothing contracts to FMA -- so
/// per lane it is exactly the scalar chain.
template <int R>
void lanes8(const StridedGemm& g, int i, int j) {
  const float* ap = g.a + i * g.a_row;
  const float* bp = g.b + j;
  float* cp = g.c + static_cast<long>(i) * g.n + j;
#if defined(__SSE2__)
  __m128 lo[R], hi[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) lo[r] = hi[r] = _mm_setzero_ps();
  for (int l = 0; l < g.depth; ++l, ap += g.a_depth, bp += g.n) {
    const __m128 b0 = _mm_loadu_ps(bp);
    const __m128 b1 = _mm_loadu_ps(bp + 4);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m128 w = _mm_set1_ps(ap[r * g.a_row]);
      lo[r] = _mm_add_ps(lo[r], _mm_mul_ps(w, b0));
      hi[r] = _mm_add_ps(hi[r], _mm_mul_ps(w, b1));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    _mm_storeu_ps(cp + r * g.n, lo[r]);
    _mm_storeu_ps(cp + r * g.n + 4, hi[r]);
  }
#else
  float s[R][8] = {};
  for (int l = 0; l < g.depth; ++l, ap += g.a_depth, bp += g.n) {
    for (int r = 0; r < R; ++r) {
      const float w = ap[r * g.a_row];
      for (int t = 0; t < 8; ++t) s[r][t] += w * bp[t];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int t = 0; t < 8; ++t) cp[r * g.n + t] = s[r][t];
  }
#endif
}

/// Column j of rows [i, i+R): R scalar chains in the same order.
template <int R>
void column(const StridedGemm& g, int i, int j) {
  float s[R] = {};
  const float* ap = g.a + i * g.a_row;
  const float* bp = g.b + j;
  for (int l = 0; l < g.depth; ++l, ap += g.a_depth, bp += g.n) {
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) s[r] += ap[r * g.a_row] * bp[0];
  }
  for (int r = 0; r < R; ++r) g.c[static_cast<long>(i + r) * g.n + j] = s[r];
}

template <int R>
void rows(const StridedGemm& g, int i) {
  int j = 0;
  for (; j + 8 <= g.n; j += 8) lanes8<R>(g, i, j);
  for (; j < g.n; ++j) column<R>(g, i, j);
}

}  // namespace

void gemm_tile(const StridedGemm& g, int r0, int r1) {
  int i = r0;
  for (; i + 4 <= r1; i += 4) rows<4>(g, i);
  for (; i < r1; ++i) rows<1>(g, i);
}

void gelu_with_grad(const float* x, float* y, float* grad, int n) {
  for (int i = 0; i < n; ++i) {
    const float v = x[i];
    const float t = fdlibm_tanhf(kGeluC * (v + kGeluCubic * v * v * v));
    y[i] = 0.5f * v * (1.0f + t);
    grad[i] = gelu_grad_from_tanh(v, t);
  }
}

}  // namespace kernels

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (!fast_ops_enabled()) return ref::matmul(a, b);
  check_matmul(a, b);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c = Tensor::uninitialized({m, n});  // every element stored below
  // A(i, l) = a[i, l].
  strided_gemm({a.data(), k, 1, b.data(), c.data(), k, n}, m);
  return c;
}

Tensor matmul_grad_a(const Tensor& dc, const Tensor& b) {
  if (!fast_ops_enabled()) return ref::matmul_grad_a(dc, b);
  check_grad_a(dc, b);
  const int m = dc.dim(0), n = dc.dim(1), k = b.dim(0);
  Tensor da = Tensor::uninitialized({m, k});  // every element stored below
  // dA[i, l] = sum over ascending j of dc[i, j] * b[l, j]: with b^T packed
  // (fresh on every call, so it can never go stale against the weights),
  // lane l of the tile runs exactly that chain.
  const Tensor bt = transposed(b);
  strided_gemm({dc.data(), n, 1, bt.data(), da.data(), n, k}, m);
  return da;
}

Tensor matmul_grad_b(const Tensor& a, const Tensor& dc) {
  if (!fast_ops_enabled()) return ref::matmul_grad_b(a, dc);
  check_grad_b(a, dc);
  const int m = a.dim(0), k = a.dim(1), n = dc.dim(1);
  Tensor db = Tensor::uninitialized({k, n});  // every element stored below
  // A(l, i) = a[i, l]: swapped strides read a^T in place; the reduction
  // runs over ascending i, the ref order. Panels split dB's k rows.
  strided_gemm({a.data(), 1, k, dc.data(), db.data(), m, n}, k);
  return db;
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor& bias) {
  if (!fast_ops_enabled()) return ref::linear(x, w, bias);
  Tensor y = matmul(x, w);
  require(bias.rank() == 1 && bias.dim(0) == y.dim(1), "linear: bias shape");
  const int rows = y.dim(0), n = y.dim(1);
  float* py = y.data();
  const float* pbias = bias.data();
  panel_for(rows, static_cast<double>(rows) * n, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      float* row = py + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) row[j] += pbias[j];
    }
  });
  return y;
}

LinearGrads linear_backward(const Tensor& x, const Tensor& w,
                            const Tensor& dy) {
  if (!fast_ops_enabled()) return ref::linear_backward(x, w, dy);
  LinearGrads g;
  g.dx = matmul_grad_a(dy, w);
  g.dw = matmul_grad_b(x, dy);
  const int rows = dy.dim(0), n = dy.dim(1);
  g.dbias = Tensor({n});
  // Column sums stay serial: ascending-i accumulation per column is the
  // reference order, and n floats of output don't repay a fan-out.
  float* pdb = g.dbias.data();
  const float* pdy = dy.data();
  for (int i = 0; i < rows; ++i) {
    const float* row = pdy + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) pdb[j] += row[j];
  }
  return g;
}

Tensor linear_backward_input(const Tensor& w, const Tensor& dy) {
  if (!fast_ops_enabled()) return ref::linear_backward_input(w, dy);
  return matmul_grad_a(dy, w);
}

LinearWeightGrads linear_backward_weight(const Tensor& x, const Tensor& dy) {
  if (!fast_ops_enabled()) return ref::linear_backward_weight(x, dy);
  LinearWeightGrads g;
  g.dw = matmul_grad_b(x, dy);
  const int rows = dy.dim(0), n = dy.dim(1);
  g.dbias = Tensor({n});
  // Serial ascending-i column sums, exactly as the fused fast path.
  float* pdb = g.dbias.data();
  const float* pdy = dy.data();
  for (int i = 0; i < rows; ++i) {
    const float* row = pdy + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) pdb[j] += row[j];
  }
  return g;
}

Tensor gelu(const Tensor& x) {
  if (!fast_ops_enabled()) return ref::gelu(x);
  Tensor y = Tensor::uninitialized(x.shape());
  const float* px = x.data();
  float* py = y.data();
  const int total = static_cast<int>(x.numel());
  const bool avx2 = kernels::avx2_supported();
  // Elementwise: chunk the flat index range. tanh is expensive enough that
  // the flop estimate undercounts, so weigh it up.
  panel_for((total + 255) / 256, 32.0 * total, [&](int c0, int c1) {
    const int e0 = c0 * 256, e1 = std::min(total, c1 * 256);
    if (avx2) {
      kernels::avx2_gelu(px + e0, py + e0, e1 - e0);
      return;
    }
    for (int i = e0; i < e1; ++i) py[i] = gelu_one(px[i]);
  });
  return y;
}

Tensor gelu_backward(const Tensor& x, const Tensor& dy) {
  if (!fast_ops_enabled()) return ref::gelu_backward(x, dy);
  require(x.same_shape(dy), "gelu_backward: shape mismatch");
  Tensor dx = Tensor::uninitialized(x.shape());
  const float* px = x.data();
  const float* pdy = dy.data();
  float* pdx = dx.data();
  const int total = static_cast<int>(x.numel());
  const bool avx2 = kernels::avx2_supported();
  panel_for((total + 255) / 256, 32.0 * total, [&](int c0, int c1) {
    const int e0 = c0 * 256, e1 = std::min(total, c1 * 256);
    if (avx2) {
      kernels::avx2_gelu_backward(px + e0, pdy + e0, pdx + e0, e1 - e0);
      return;
    }
    for (int i = e0; i < e1; ++i) pdx[i] = pdy[i] * gelu_grad_one(px[i]);
  });
  return dx;
}

Tensor gelu_with_grad(const Tensor& x, Tensor* grad) {
  Tensor y = Tensor::uninitialized(x.shape());
  *grad = Tensor::uninitialized(x.shape());
  const float* px = x.data();
  float* py = y.data();
  float* pg = grad->data();
  const int total = static_cast<int>(x.numel());
  if (!fast_ops_enabled()) {
    // ref:: has no fused form: the two scalar passes it would make.
    for (int i = 0; i < total; ++i) py[i] = gelu_one(px[i]);
    for (int i = 0; i < total; ++i) pg[i] = gelu_grad_one(px[i]);
    return y;
  }
  const auto kernel = kernels::avx2_supported() ? &kernels::avx2_gelu_with_grad
                                                : &kernels::gelu_with_grad;
  panel_for((total + 255) / 256, 32.0 * total, [&](int c0, int c1) {
    const int e0 = c0 * 256, e1 = std::min(total, c1 * 256);
    kernel(px + e0, py + e0, pg + e0, e1 - e0);
  });
  return y;
}

Tensor layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 LayerNormCache* cache) {
  if (!fast_ops_enabled()) return ref::layernorm(x, gamma, beta, cache);
  require(x.rank() == 2, "layernorm: rank");
  const int rows = x.dim(0), d = x.dim(1);
  require(gamma.dim(0) == d && beta.dim(0) == d, "layernorm: params");
  Tensor y = Tensor::uninitialized({rows, d});
  if (cache) {
    cache->normalized = Tensor::uninitialized({rows, d});
    cache->inv_std.resize(rows);
  }
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pbt = beta.data();
  float* py = y.data();
  float* pn = cache ? cache->normalized.data() : nullptr;
  float* pinv = cache ? cache->inv_std.data() : nullptr;
  panel_for(rows, 8.0 * rows * d, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      layernorm_row(px + static_cast<std::size_t>(i) * d, pg, pbt, d,
                    pn ? pn + static_cast<std::size_t>(i) * d : nullptr,
                    py + static_cast<std::size_t>(i) * d,
                    pinv ? pinv + i : nullptr);
    }
  });
  return y;
}

LayerNormGrads layernorm_backward(const LayerNormCache& cache,
                                  const Tensor& gamma, const Tensor& dy) {
  if (!fast_ops_enabled()) return ref::layernorm_backward(cache, gamma, dy);
  const int rows = dy.dim(0), d = dy.dim(1);
  LayerNormGrads g;
  g.dx = Tensor::uninitialized({rows, d});
  g.dgamma = Tensor({d});
  g.dbeta = Tensor({d});
  const float* pdy = dy.data();
  const float* pn = cache.normalized.data();
  const float* pg = gamma.data();
  float* pdx = g.dx.data();
  // Pass 1 (parallel): dx rows are independent; the row-local sums run in
  // the reference's j order.
  panel_for(rows, 10.0 * rows * d, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      const float* dyr = pdy + static_cast<std::size_t>(i) * d;
      const float* nr = pn + static_cast<std::size_t>(i) * d;
      float sum_dn = 0, sum_dnn = 0;
      for (int j = 0; j < d; ++j) {
        const float dnorm = dyr[j] * pg[j];
        sum_dn += dnorm;
        sum_dnn += dnorm * nr[j];
      }
      const float inv = cache.inv_std[i];
      float* dxr = pdx + static_cast<std::size_t>(i) * d;
      for (int j = 0; j < d; ++j) {
        const float dnorm = dyr[j] * pg[j];
        dxr[j] = inv * (dnorm - sum_dn / d - nr[j] * sum_dnn / d);
      }
    }
  });
  // Pass 2 (serial): parameter gradients accumulate over rows in ascending
  // i -- per column exactly the reference's addition order.
  float* pdg = g.dgamma.data();
  float* pdb = g.dbeta.data();
  for (int i = 0; i < rows; ++i) {
    const float* dyr = pdy + static_cast<std::size_t>(i) * d;
    const float* nr = pn + static_cast<std::size_t>(i) * d;
    for (int j = 0; j < d; ++j) {
      pdg[j] += dyr[j] * nr[j];
      pdb[j] += dyr[j];
    }
  }
  return g;
}

Tensor layernorm_backward_input(const LayerNormCache& cache,
                                const Tensor& gamma, const Tensor& dy) {
  if (!fast_ops_enabled()) {
    return ref::layernorm_backward_input(cache, gamma, dy);
  }
  const int rows = dy.dim(0), d = dy.dim(1);
  Tensor dx = Tensor::uninitialized({rows, d});
  const float* pdy = dy.data();
  const float* pn = cache.normalized.data();
  const float* pg = gamma.data();
  float* pdx = dx.data();
  // The fused kernel's pass 1, verbatim: dx rows are independent and each
  // row's sums run in the reference's j order.
  panel_for(rows, 10.0 * rows * d, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      const float* dyr = pdy + static_cast<std::size_t>(i) * d;
      const float* nr = pn + static_cast<std::size_t>(i) * d;
      float sum_dn = 0, sum_dnn = 0;
      for (int j = 0; j < d; ++j) {
        const float dnorm = dyr[j] * pg[j];
        sum_dn += dnorm;
        sum_dnn += dnorm * nr[j];
      }
      const float inv = cache.inv_std[i];
      float* dxr = pdx + static_cast<std::size_t>(i) * d;
      for (int j = 0; j < d; ++j) {
        const float dnorm = dyr[j] * pg[j];
        dxr[j] = inv * (dnorm - sum_dn / d - nr[j] * sum_dnn / d);
      }
    }
  });
  return dx;
}

LayerNormWeightGrads layernorm_backward_weight(const LayerNormCache& cache,
                                               const Tensor& dy) {
  if (!fast_ops_enabled()) return ref::layernorm_backward_weight(cache, dy);
  const int rows = dy.dim(0), d = dy.dim(1);
  LayerNormWeightGrads g;
  g.dgamma = Tensor({d});
  g.dbeta = Tensor({d});
  // The fused kernel's pass 2, verbatim: serial ascending-i accumulation.
  const float* pdy = dy.data();
  const float* pn = cache.normalized.data();
  float* pdg = g.dgamma.data();
  float* pdb = g.dbeta.data();
  for (int i = 0; i < rows; ++i) {
    const float* dyr = pdy + static_cast<std::size_t>(i) * d;
    const float* nr = pn + static_cast<std::size_t>(i) * d;
    for (int j = 0; j < d; ++j) {
      pdg[j] += dyr[j] * nr[j];
      pdb[j] += dyr[j];
    }
  }
  return g;
}

Tensor softmax_rows(const Tensor& scores) {
  if (!fast_ops_enabled()) return ref::softmax_rows(scores);
  require(scores.rank() == 2, "softmax: rank");
  const int rows = scores.dim(0), n = scores.dim(1);
  Tensor probs = Tensor::uninitialized({rows, n});
  const float* ps = scores.data();
  float* pp = probs.data();
  panel_for(rows, 16.0 * rows * n, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      softmax_row(ps + static_cast<std::size_t>(i) * n, n,
                  pp + static_cast<std::size_t>(i) * n);
    }
  });
  return probs;
}

Tensor softmax_backward(const Tensor& probs, const Tensor& dprobs) {
  if (!fast_ops_enabled()) return ref::softmax_backward(probs, dprobs);
  require(probs.same_shape(dprobs), "softmax_backward: shape");
  const int rows = probs.dim(0), n = probs.dim(1);
  Tensor ds = Tensor::uninitialized({rows, n});
  const float* pp = probs.data();
  const float* pdp = dprobs.data();
  float* pds = ds.data();
  panel_for(rows, 4.0 * rows * n, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      const float* p = pp + static_cast<std::size_t>(i) * n;
      const float* dp = pdp + static_cast<std::size_t>(i) * n;
      float* out = pds + static_cast<std::size_t>(i) * n;
      float dot = 0;
      for (int j = 0; j < n; ++j) dot += p[j] * dp[j];
      for (int j = 0; j < n; ++j) out[j] = p[j] * (dp[j] - dot);
    }
  });
  return ds;
}

double cross_entropy(const Tensor& logits, std::span<const int> targets,
                     double scale, Tensor* dlogits) {
  if (!fast_ops_enabled()) {
    return ref::cross_entropy(logits, targets, scale, dlogits);
  }
  check_cross_entropy(logits, targets);
  const int rows = logits.dim(0), v = logits.dim(1);
  if (dlogits) *dlogits = Tensor::uninitialized({rows, v});
  // Row terms land in a scratch vector so the final reduction can add them
  // in the reference's ascending-row order regardless of panel timing.
  std::vector<double> row_loss(rows);
  const float* pl = logits.data();
  float* pd = dlogits ? dlogits->data() : nullptr;
  panel_for(rows, 20.0 * rows * v, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      row_loss[i] = cross_entropy_row(
          pl + static_cast<std::size_t>(i) * v, v, targets[i], scale,
          pd ? pd + static_cast<std::size_t>(i) * v : nullptr);
    }
  });
  double loss = 0;
  for (int i = 0; i < rows; ++i) loss += row_loss[i];
  return loss;
}

Tensor embedding_lookup(const Tensor& table, std::span<const int> ids) {
  require(table.rank() == 2, "embedding: table rank");
  const int h = table.dim(1);
  Tensor out = Tensor::uninitialized({static_cast<int>(ids.size()), h});
  for (std::size_t i = 0; i < ids.size(); ++i) {
    require(ids[i] >= 0 && ids[i] < table.dim(0), "embedding: id range");
    const float* src = table.data() + static_cast<std::size_t>(ids[i]) * h;
    std::copy(src, src + h, out.data() + i * h);
  }
  return out;
}

void embedding_backward(std::span<const int> ids, const Tensor& dy,
                        Tensor* dtable) {
  require(dtable && dtable->rank() == 2 && dy.rank() == 2 &&
              dy.dim(1) == dtable->dim(1) &&
              dy.dim(0) == static_cast<int>(ids.size()),
          "embedding_backward: shape");
  const int h = dy.dim(1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    float* dst = dtable->data() + static_cast<std::size_t>(ids[i]) * h;
    const float* src = dy.data() + i * h;
    for (int j = 0; j < h; ++j) dst[j] += src[j];
  }
}

}  // namespace autopipe::model
