#include "model/blocks.h"

#include <cmath>
#include <stdexcept>

namespace autopipe::model {

void Block::zero_grads() {
  for (auto& p : params_) p.grad.fill_(0.0f);
}

std::size_t Block::param_count() const {
  std::size_t n = 0;
  for (const auto& p : params_) n += p.value.numel();
  return n;
}

std::unique_ptr<Block::Cache> Block::forward_cached(const Tensor& x,
                                                    Tensor* y) const {
  auto cache = std::make_unique<InputCache>();
  cache->x = x;
  if (y) *y = forward(x);
  return cache;
}

Tensor Block::backward_cached(const Cache& cache, const Tensor& dy) {
  const auto& input = dynamic_cast<const InputCache&>(cache);
  return backward(input.x, dy);
}

Tensor Block::backward_input(const Tensor& x, const Tensor& dy,
                             std::unique_ptr<BwState>* state) {
  // Fused fallback: accumulate parameter gradients now; nothing deferred.
  if (state) state->reset();
  return backward(x, dy);
}

void Block::backward_weight(const BwState&) {}

std::size_t Block::cache_bytes(const Tensor& x) const {
  return x.numel() * sizeof(float);
}

ParamTensor& Block::add_param(std::string name, Tensor value) {
  ParamTensor p;
  p.name = std::move(name);
  p.grad = Tensor(value.shape());
  p.value = std::move(value);
  params_.push_back(std::move(p));
  return params_.back();
}

namespace {

/// Copies rows [r0, r1) of a [rows, d] tensor.
Tensor take_rows(const Tensor& x, int r0, int r1) {
  const int d = x.dim(1);
  Tensor out({r1 - r0, d});
  std::copy(x.data() + static_cast<std::size_t>(r0) * d,
            x.data() + static_cast<std::size_t>(r1) * d, out.data());
  return out;
}

void put_rows(Tensor* dst, const Tensor& src, int r0) {
  const int d = dst->dim(1);
  std::copy(src.data(), src.data() + src.numel(),
            dst->data() + static_cast<std::size_t>(r0) * d);
}

/// Copies columns [c0, c1) of a [rows, d] tensor.
Tensor take_cols(const Tensor& x, int c0, int c1) {
  const int rows = x.dim(0), d = x.dim(1);
  Tensor out({rows, c1 - c0});
  for (int i = 0; i < rows; ++i) {
    std::copy(x.data() + i * d + c0, x.data() + i * d + c1,
              out.data() + static_cast<std::size_t>(i) * (c1 - c0));
  }
  return out;
}

void add_cols(Tensor* dst, const Tensor& src, int c0) {
  const int rows = dst->dim(0), d = dst->dim(1), w = src.dim(1);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < w; ++j) {
      dst->data()[i * d + c0 + j] += src.data()[i * w + j];
    }
  }
}

/// [s, s] transpose.
Tensor transpose(const Tensor& x) {
  Tensor out({x.dim(1), x.dim(0)});
  for (int i = 0; i < x.dim(0); ++i) {
    for (int j = 0; j < x.dim(1); ++j) {
      out.data()[j * x.dim(0) + i] = x.data()[i * x.dim(1) + j];
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- Embedding

EmbeddingBlock::EmbeddingBlock(int vocab, int hidden, int seq_len,
                               util::Rng& rng)
    : vocab_(vocab), hidden_(hidden), seq_len_(seq_len) {
  const float scale = 0.02f;
  add_param("tok_embed", Tensor::randn({vocab, hidden}, rng, scale));
  add_param("pos_embed", Tensor::randn({seq_len, hidden}, rng, scale));
}

std::vector<int> EmbeddingBlock::decode_ids(const Tensor& x) const {
  if (x.rank() != 2 || x.dim(1) != 1) {
    throw std::invalid_argument("embedding expects [tokens, 1] id tensor");
  }
  std::vector<int> ids(x.dim(0));
  for (int i = 0; i < x.dim(0); ++i) {
    ids[i] = static_cast<int>(std::lround(x.at(i)));
    if (ids[i] < 0 || ids[i] >= vocab_) {
      throw std::invalid_argument("token id out of range");
    }
  }
  return ids;
}

Tensor EmbeddingBlock::forward(const Tensor& x) const {
  const std::vector<int> ids = decode_ids(x);
  Tensor y = embedding_lookup(params_[0].value, ids);
  for (int i = 0; i < y.dim(0); ++i) {
    const int pos = i % seq_len_;
    for (int j = 0; j < hidden_; ++j) {
      y.data()[i * hidden_ + j] += params_[1].value.at(pos * hidden_ + j);
    }
  }
  return y;
}

Tensor EmbeddingBlock::backward(const Tensor& x, const Tensor& dy) {
  const std::vector<int> ids = decode_ids(x);
  embedding_backward(ids, dy, &params_[0].grad);
  for (int i = 0; i < dy.dim(0); ++i) {
    const int pos = i % seq_len_;
    for (int j = 0; j < hidden_; ++j) {
      params_[1].grad.data()[pos * hidden_ + j] += dy.at(i * hidden_ + j);
    }
  }
  // Ids have no gradient; return a zero tensor of the input shape so the
  // runtime's message plumbing stays uniform.
  return Tensor(x.shape());
}

// The embedding's entire backward is weight work (ids carry no gradient),
// so the input half only stashes state and returns the uniform zero dx.
struct EmbeddingBlock::EmbedBwState : Block::BwState {
  std::vector<int> ids;
  Tensor dy;
};

Tensor EmbeddingBlock::backward_input(const Tensor& x, const Tensor& dy,
                                      std::unique_ptr<BwState>* state) {
  auto s = std::make_unique<EmbedBwState>();
  s->ids = decode_ids(x);
  s->dy = dy;
  if (state) *state = std::move(s);
  return Tensor(x.shape());
}

void EmbeddingBlock::backward_weight(const BwState& state) {
  const auto& s = dynamic_cast<const EmbedBwState&>(state);
  embedding_backward(s.ids, s.dy, &params_[0].grad);
  for (int i = 0; i < s.dy.dim(0); ++i) {
    const int pos = i % seq_len_;
    for (int j = 0; j < hidden_; ++j) {
      params_[1].grad.data()[pos * hidden_ + j] += s.dy.at(i * hidden_ + j);
    }
  }
}

// ---------------------------------------------------------------- Attention

ResidualAttentionBlock::ResidualAttentionBlock(int hidden, int heads,
                                               int seq_len, bool causal,
                                               util::Rng& rng)
    : hidden_(hidden), heads_(heads), seq_len_(seq_len), causal_(causal) {
  if (hidden % heads != 0) {
    throw std::invalid_argument("hidden must be divisible by heads");
  }
  const float scale = 0.02f;
  add_param("ln_gamma", Tensor::full({hidden}, 1.0f));
  add_param("ln_beta", Tensor({hidden}));
  add_param("w_qkv", Tensor::randn({hidden, 3 * hidden}, rng, scale));
  add_param("b_qkv", Tensor({3 * hidden}));
  add_param("w_out", Tensor::randn({hidden, hidden}, rng, scale));
  add_param("b_out", Tensor({hidden}));
}

Tensor ResidualAttentionBlock::forward(const Tensor& x) const {
  if (x.rank() != 2 || x.dim(1) != hidden_ || x.dim(0) % seq_len_ != 0) {
    throw std::invalid_argument("attention: bad input shape");
  }
  const int batch = x.dim(0) / seq_len_;
  const int hd = hidden_ / heads_;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));

  LayerNormCache ln_cache;
  const Tensor normed =
      layernorm(x, params_[0].value, params_[1].value, &ln_cache);
  const Tensor qkv = linear(normed, params_[2].value, params_[3].value);

  // The loop below assigns every element of y as residual + projection, so
  // start from uninitialized storage instead of a counted copy of x.
  Tensor y = Tensor::uninitialized(x.shape());
  for (int b = 0; b < batch; ++b) {
    const Tensor qkv_b = take_rows(qkv, b * seq_len_, (b + 1) * seq_len_);
    Tensor ctx({seq_len_, hidden_});
    for (int h = 0; h < heads_; ++h) {
      const Tensor q = take_cols(qkv_b, h * hd, (h + 1) * hd);
      const Tensor k = take_cols(qkv_b, hidden_ + h * hd, hidden_ + (h + 1) * hd);
      const Tensor v =
          take_cols(qkv_b, 2 * hidden_ + h * hd, 2 * hidden_ + (h + 1) * hd);
      Tensor scores = matmul(q, transpose(k));
      scores.scale_(inv_sqrt);
      if (causal_) {
        for (int i = 0; i < seq_len_; ++i) {
          for (int j = i + 1; j < seq_len_; ++j) {
            scores.data()[i * seq_len_ + j] = -1e9f;
          }
        }
      }
      const Tensor probs = softmax_rows(scores);
      add_cols(&ctx, matmul(probs, v), h * hd);
    }
    const Tensor out = linear(ctx, params_[4].value, params_[5].value);
    for (int i = 0; i < seq_len_; ++i) {
      for (int j = 0; j < hidden_; ++j) {
        const std::size_t row = (b * seq_len_ + i) * hidden_ + j;
        y.data()[row] = x.at(row) + out.at(i * hidden_ + j);
      }
    }
  }
  return y;
}

Tensor ResidualAttentionBlock::backward(const Tensor& x, const Tensor& dy) {
  const int batch = x.dim(0) / seq_len_;
  const int hd = hidden_ / heads_;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));

  // Recompute forward intermediates (activation checkpointing).
  LayerNormCache ln_cache;
  const Tensor normed =
      layernorm(x, params_[0].value, params_[1].value, &ln_cache);
  const Tensor qkv = linear(normed, params_[2].value, params_[3].value);

  Tensor dqkv({x.dim(0), 3 * hidden_});
  for (int b = 0; b < batch; ++b) {
    const Tensor qkv_b = take_rows(qkv, b * seq_len_, (b + 1) * seq_len_);
    const Tensor dy_b = take_rows(dy, b * seq_len_, (b + 1) * seq_len_);

    // Recompute per-head probs and ctx for this sample.
    Tensor ctx({seq_len_, hidden_});
    std::vector<Tensor> probs_h(heads_);
    for (int h = 0; h < heads_; ++h) {
      const Tensor q = take_cols(qkv_b, h * hd, (h + 1) * hd);
      const Tensor k = take_cols(qkv_b, hidden_ + h * hd, hidden_ + (h + 1) * hd);
      const Tensor v =
          take_cols(qkv_b, 2 * hidden_ + h * hd, 2 * hidden_ + (h + 1) * hd);
      Tensor scores = matmul(q, transpose(k));
      scores.scale_(inv_sqrt);
      if (causal_) {
        for (int i = 0; i < seq_len_; ++i) {
          for (int j = i + 1; j < seq_len_; ++j) {
            scores.data()[i * seq_len_ + j] = -1e9f;
          }
        }
      }
      probs_h[h] = softmax_rows(scores);
      add_cols(&ctx, matmul(probs_h[h], v), h * hd);
    }

    // Output projection.
    LinearGrads og = linear_backward(ctx, params_[4].value, dy_b);
    params_[4].grad.add_(og.dw);
    params_[5].grad.add_(og.dbias);

    // Heads.
    Tensor dqkv_b({seq_len_, 3 * hidden_});
    for (int h = 0; h < heads_; ++h) {
      const Tensor q = take_cols(qkv_b, h * hd, (h + 1) * hd);
      const Tensor k = take_cols(qkv_b, hidden_ + h * hd, hidden_ + (h + 1) * hd);
      const Tensor v =
          take_cols(qkv_b, 2 * hidden_ + h * hd, 2 * hidden_ + (h + 1) * hd);
      const Tensor dctx_h = take_cols(og.dx, h * hd, (h + 1) * hd);
      const Tensor dprobs = matmul(dctx_h, transpose(v));
      const Tensor dv = matmul(transpose(probs_h[h]), dctx_h);
      Tensor dscores = softmax_backward(probs_h[h], dprobs);
      dscores.scale_(inv_sqrt);
      const Tensor dq = matmul(dscores, k);
      const Tensor dk = matmul(transpose(dscores), q);
      add_cols(&dqkv_b, dq, h * hd);
      add_cols(&dqkv_b, dk, hidden_ + h * hd);
      add_cols(&dqkv_b, dv, 2 * hidden_ + h * hd);
    }
    put_rows(&dqkv, dqkv_b, b * seq_len_);
  }

  LinearGrads qg = linear_backward(normed, params_[2].value, dqkv);
  params_[2].grad.add_(qg.dw);
  params_[3].grad.add_(qg.dbias);

  LayerNormGrads lg = layernorm_backward(ln_cache, params_[0].value, qg.dx);
  params_[0].grad.add_(lg.dgamma);
  params_[1].grad.add_(lg.dbeta);
  // Residual path: reuse lg.dx's storage instead of copying dy (addition
  // commutes, so dy + lg.dx and lg.dx + dy are the same bits).
  Tensor dx = std::move(lg.dx);
  dx.add_(dy);
  return dx;
}

// Weight-half state: the recomputed activations feeding each parameter
// gradient (ctx for w_out/b_out, normed for w_qkv/b_qkv, the layer-norm
// cache for gamma/beta) plus the gradients flowing into them.
struct ResidualAttentionBlock::AttnBwState : Block::BwState {
  Tensor ctx;     ///< [tokens, hidden], all samples
  Tensor dy;
  Tensor dqkv;
  Tensor normed;
  Tensor qg_dx;   ///< d(qkv linear input) == layer-norm output grad
  LayerNormCache ln;
};

Tensor ResidualAttentionBlock::backward_input(const Tensor& x,
                                              const Tensor& dy,
                                              std::unique_ptr<BwState>* state) {
  const int batch = x.dim(0) / seq_len_;
  const int hd = hidden_ / heads_;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
  auto s = std::make_unique<AttnBwState>();

  // Recompute forward intermediates, exactly as the fused backward does.
  s->normed = layernorm(x, params_[0].value, params_[1].value, &s->ln);
  const Tensor qkv = linear(s->normed, params_[2].value, params_[3].value);

  s->ctx = Tensor({x.dim(0), hidden_});
  s->dqkv = Tensor({x.dim(0), 3 * hidden_});
  for (int b = 0; b < batch; ++b) {
    const Tensor qkv_b = take_rows(qkv, b * seq_len_, (b + 1) * seq_len_);
    const Tensor dy_b = take_rows(dy, b * seq_len_, (b + 1) * seq_len_);

    Tensor ctx({seq_len_, hidden_});
    std::vector<Tensor> probs_h(heads_);
    for (int h = 0; h < heads_; ++h) {
      const Tensor q = take_cols(qkv_b, h * hd, (h + 1) * hd);
      const Tensor k = take_cols(qkv_b, hidden_ + h * hd, hidden_ + (h + 1) * hd);
      const Tensor v =
          take_cols(qkv_b, 2 * hidden_ + h * hd, 2 * hidden_ + (h + 1) * hd);
      Tensor scores = matmul(q, transpose(k));
      scores.scale_(inv_sqrt);
      if (causal_) {
        for (int i = 0; i < seq_len_; ++i) {
          for (int j = i + 1; j < seq_len_; ++j) {
            scores.data()[i * seq_len_ + j] = -1e9f;
          }
        }
      }
      probs_h[h] = softmax_rows(scores);
      add_cols(&ctx, matmul(probs_h[h], v), h * hd);
    }

    // Output projection, input half only; ctx is stashed for the W op.
    const Tensor dctx = linear_backward_input(params_[4].value, dy_b);
    put_rows(&s->ctx, ctx, b * seq_len_);

    Tensor dqkv_b({seq_len_, 3 * hidden_});
    for (int h = 0; h < heads_; ++h) {
      const Tensor q = take_cols(qkv_b, h * hd, (h + 1) * hd);
      const Tensor k = take_cols(qkv_b, hidden_ + h * hd, hidden_ + (h + 1) * hd);
      const Tensor v =
          take_cols(qkv_b, 2 * hidden_ + h * hd, 2 * hidden_ + (h + 1) * hd);
      const Tensor dctx_h = take_cols(dctx, h * hd, (h + 1) * hd);
      const Tensor dprobs = matmul(dctx_h, transpose(v));
      const Tensor dv = matmul(transpose(probs_h[h]), dctx_h);
      Tensor dscores = softmax_backward(probs_h[h], dprobs);
      dscores.scale_(inv_sqrt);
      const Tensor dq = matmul(dscores, k);
      const Tensor dk = matmul(transpose(dscores), q);
      add_cols(&dqkv_b, dq, h * hd);
      add_cols(&dqkv_b, dk, hidden_ + h * hd);
      add_cols(&dqkv_b, dv, 2 * hidden_ + h * hd);
    }
    put_rows(&s->dqkv, dqkv_b, b * seq_len_);
  }

  s->qg_dx = linear_backward_input(params_[2].value, s->dqkv);
  Tensor dx = layernorm_backward_input(s->ln, params_[0].value, s->qg_dx);
  dx.add_(dy);
  s->dy = dy;
  if (state) *state = std::move(s);
  return dx;
}

void ResidualAttentionBlock::backward_weight(const BwState& state) {
  const auto& s = dynamic_cast<const AttnBwState&>(state);
  const int batch = s.dy.dim(0) / seq_len_;
  // Accumulation order mirrors the fused backward exactly: per-sample
  // w_out/b_out in ascending b, then w_qkv/b_qkv, then gamma/beta.
  for (int b = 0; b < batch; ++b) {
    const Tensor ctx_b = take_rows(s.ctx, b * seq_len_, (b + 1) * seq_len_);
    const Tensor dy_b = take_rows(s.dy, b * seq_len_, (b + 1) * seq_len_);
    const LinearWeightGrads og = linear_backward_weight(ctx_b, dy_b);
    params_[4].grad.add_(og.dw);
    params_[5].grad.add_(og.dbias);
  }
  const LinearWeightGrads qg = linear_backward_weight(s.normed, s.dqkv);
  params_[2].grad.add_(qg.dw);
  params_[3].grad.add_(qg.dbias);
  const LayerNormWeightGrads lg = layernorm_backward_weight(s.ln, s.qg_dx);
  params_[0].grad.add_(lg.dgamma);
  params_[1].grad.add_(lg.dbeta);
}

// ---------------------------------------------------------------------- FFN

ResidualFFNBlock::ResidualFFNBlock(int hidden, util::Rng& rng)
    : hidden_(hidden) {
  const float scale = 0.02f;
  add_param("ln_gamma", Tensor::full({hidden}, 1.0f));
  add_param("ln_beta", Tensor({hidden}));
  add_param("w_fc1", Tensor::randn({hidden, 4 * hidden}, rng, scale));
  add_param("b_fc1", Tensor({4 * hidden}));
  add_param("w_fc2", Tensor::randn({4 * hidden, hidden}, rng, scale));
  add_param("b_fc2", Tensor({hidden}));
}

Tensor ResidualFFNBlock::forward(const Tensor& x) const {
  LayerNormCache ln_cache;
  const Tensor normed =
      layernorm(x, params_[0].value, params_[1].value, &ln_cache);
  const Tensor pre = linear(normed, params_[2].value, params_[3].value);
  const Tensor act = gelu(pre);
  // Accumulate the residual into the projection's storage (commutative, so
  // same bits as x + out) rather than copying x.
  Tensor y = linear(act, params_[4].value, params_[5].value);
  y.add_(x);
  return y;
}

Tensor ResidualFFNBlock::backward(const Tensor& x, const Tensor& dy) {
  LayerNormCache ln_cache;
  const Tensor normed =
      layernorm(x, params_[0].value, params_[1].value, &ln_cache);
  const Tensor pre = linear(normed, params_[2].value, params_[3].value);
  Tensor gelu_grad;
  const Tensor act = gelu_with_grad(pre, &gelu_grad);

  LinearGrads g2 = linear_backward(act, params_[4].value, dy);
  params_[4].grad.add_(g2.dw);
  params_[5].grad.add_(g2.dbias);

  Tensor dpre = std::move(g2.dx);
  dpre.mul_(gelu_grad);  // gelu_backward(pre, g2.dx) without a second tanh
  LinearGrads g1 = linear_backward(normed, params_[2].value, dpre);
  params_[2].grad.add_(g1.dw);
  params_[3].grad.add_(g1.dbias);

  LayerNormGrads lg = layernorm_backward(ln_cache, params_[0].value, g1.dx);
  params_[0].grad.add_(lg.dgamma);
  params_[1].grad.add_(lg.dbeta);

  Tensor dx = std::move(lg.dx);
  dx.add_(dy);
  return dx;
}

struct ResidualFFNBlock::FFNBwState : Block::BwState {
  Tensor act;     ///< gelu output, feeds w_fc2/b_fc2
  Tensor dy;
  Tensor normed;  ///< layer-norm output, feeds w_fc1/b_fc1
  Tensor dpre;    ///< grad into fc1's output, pairs with normed
  Tensor g1_dx;   ///< grad into the layer norm, feeds gamma/beta
  LayerNormCache ln;
};

Tensor ResidualFFNBlock::backward_input(const Tensor& x, const Tensor& dy,
                                        std::unique_ptr<BwState>* state) {
  auto s = std::make_unique<FFNBwState>();
  s->normed = layernorm(x, params_[0].value, params_[1].value, &s->ln);
  const Tensor pre = linear(s->normed, params_[2].value, params_[3].value);
  Tensor gelu_grad;
  s->act = gelu_with_grad(pre, &gelu_grad);

  s->dpre = linear_backward_input(params_[4].value, dy);
  s->dpre.mul_(gelu_grad);  // gelu_backward(pre, ...) without a second tanh
  s->g1_dx = linear_backward_input(params_[2].value, s->dpre);
  Tensor dx = layernorm_backward_input(s->ln, params_[0].value, s->g1_dx);
  dx.add_(dy);
  s->dy = dy;
  if (state) *state = std::move(s);
  return dx;
}

void ResidualFFNBlock::backward_weight(const BwState& state) {
  const auto& s = dynamic_cast<const FFNBwState&>(state);
  // Fused order: fc2, then fc1, then the layer norm.
  const LinearWeightGrads g2 = linear_backward_weight(s.act, s.dy);
  params_[4].grad.add_(g2.dw);
  params_[5].grad.add_(g2.dbias);
  const LinearWeightGrads g1 = linear_backward_weight(s.normed, s.dpre);
  params_[2].grad.add_(g1.dw);
  params_[3].grad.add_(g1.dbias);
  const LayerNormWeightGrads lg = layernorm_backward_weight(s.ln, s.g1_dx);
  params_[0].grad.add_(lg.dgamma);
  params_[1].grad.add_(lg.dbeta);
}

// backward_cached reconstructs everything it needs from the layer-norm
// state, pre and act -- the input itself is not stashed.
struct ResidualFFNBlock::FullCache : Block::Cache {
  Tensor pre, act;
  LayerNormCache ln;
};

std::unique_ptr<Block::Cache> ResidualFFNBlock::forward_cached(
    const Tensor& x, Tensor* y) const {
  auto cache = std::make_unique<FullCache>();
  const Tensor normed =
      layernorm(x, params_[0].value, params_[1].value, &cache->ln);
  cache->pre = linear(normed, params_[2].value, params_[3].value);
  cache->act = gelu(cache->pre);
  if (y) {
    *y = linear(cache->act, params_[4].value, params_[5].value);
    y->add_(x);
  }
  return cache;
}

Tensor ResidualFFNBlock::backward_cached(const Cache& cache,
                                         const Tensor& dy) {
  const auto& full = dynamic_cast<const FullCache&>(cache);
  LinearGrads g2 = linear_backward(full.act, params_[4].value, dy);
  params_[4].grad.add_(g2.dw);
  params_[5].grad.add_(g2.dbias);
  const Tensor dpre = gelu_backward(full.pre, g2.dx);
  // The normed input is recoverable from the cached layer-norm state.
  Tensor normed(full.ln.normalized.shape());
  for (int i = 0; i < normed.dim(0); ++i) {
    for (int j = 0; j < normed.dim(1); ++j) {
      normed.data()[i * normed.dim(1) + j] =
          full.ln.normalized.at(i * normed.dim(1) + j) * params_[0].value.at(j) +
          params_[1].value.at(j);
    }
  }
  LinearGrads g1 = linear_backward(normed, params_[2].value, dpre);
  params_[2].grad.add_(g1.dw);
  params_[3].grad.add_(g1.dbias);
  LayerNormGrads lg = layernorm_backward(full.ln, params_[0].value, g1.dx);
  params_[0].grad.add_(lg.dgamma);
  params_[1].grad.add_(lg.dbeta);
  Tensor dx = std::move(lg.dx);
  dx.add_(dy);
  return dx;
}

std::size_t ResidualFFNBlock::cache_bytes(const Tensor& x) const {
  // normalized + inv_std + pre + act.
  return (x.numel() + 2 * x.numel() * 4 + x.dim(0)) * sizeof(float);
}

// --------------------------------------------------------------------- Head

HeadBlock::HeadBlock(int hidden, int vocab, util::Rng& rng)
    : hidden_(hidden), vocab_(vocab) {
  add_param("ln_gamma", Tensor::full({hidden}, 1.0f));
  add_param("ln_beta", Tensor({hidden}));
  add_param("w_unembed", Tensor::randn({hidden, vocab}, rng, 0.02f));
}

Tensor HeadBlock::forward(const Tensor& x) const {
  LayerNormCache ln_cache;
  const Tensor normed =
      layernorm(x, params_[0].value, params_[1].value, &ln_cache);
  return matmul(normed, params_[2].value);
}

Tensor HeadBlock::backward(const Tensor& x, const Tensor& dy) {
  LayerNormCache ln_cache;
  const Tensor normed =
      layernorm(x, params_[0].value, params_[1].value, &ln_cache);
  params_[2].grad.add_(matmul_grad_b(normed, dy));
  const Tensor dnormed = matmul_grad_a(dy, params_[2].value);
  LayerNormGrads lg = layernorm_backward(ln_cache, params_[0].value, dnormed);
  params_[0].grad.add_(lg.dgamma);
  params_[1].grad.add_(lg.dbeta);
  // Struct members get no NRVO; move out explicitly to avoid a deep copy.
  return std::move(lg.dx);
}

struct HeadBlock::HeadBwState : Block::BwState {
  Tensor normed;   ///< feeds w_unembed
  Tensor dy;
  Tensor dnormed;  ///< grad into the layer norm, feeds gamma/beta
  LayerNormCache ln;
};

Tensor HeadBlock::backward_input(const Tensor& x, const Tensor& dy,
                                 std::unique_ptr<BwState>* state) {
  auto s = std::make_unique<HeadBwState>();
  s->normed = layernorm(x, params_[0].value, params_[1].value, &s->ln);
  s->dnormed = matmul_grad_a(dy, params_[2].value);
  Tensor dx = layernorm_backward_input(s->ln, params_[0].value, s->dnormed);
  s->dy = dy;
  if (state) *state = std::move(s);
  return dx;
}

void HeadBlock::backward_weight(const BwState& state) {
  const auto& s = dynamic_cast<const HeadBwState&>(state);
  // Fused order: the unembedding first, then gamma/beta.
  params_[2].grad.add_(matmul_grad_b(s.normed, s.dy));
  const LayerNormWeightGrads lg = layernorm_backward_weight(s.ln, s.dnormed);
  params_[0].grad.add_(lg.dgamma);
  params_[1].grad.add_(lg.dbeta);
}

struct HeadBlock::FullCache : Block::Cache {
  LayerNormCache ln;
};

std::unique_ptr<Block::Cache> HeadBlock::forward_cached(const Tensor& x,
                                                        Tensor* y) const {
  auto cache = std::make_unique<FullCache>();
  const Tensor normed =
      layernorm(x, params_[0].value, params_[1].value, &cache->ln);
  if (y) *y = matmul(normed, params_[2].value);
  return cache;
}

Tensor HeadBlock::backward_cached(const Cache& cache, const Tensor& dy) {
  const auto& full = dynamic_cast<const FullCache&>(cache);
  // Reconstruct normed from the cached normalization.
  Tensor normed(full.ln.normalized.shape());
  const int d = normed.dim(1);
  for (int i = 0; i < normed.dim(0); ++i) {
    for (int j = 0; j < d; ++j) {
      normed.data()[i * d + j] =
          full.ln.normalized.at(i * d + j) * params_[0].value.at(j) +
          params_[1].value.at(j);
    }
  }
  params_[2].grad.add_(matmul_grad_b(normed, dy));
  const Tensor dnormed = matmul_grad_a(dy, params_[2].value);
  LayerNormGrads lg = layernorm_backward(full.ln, params_[0].value, dnormed);
  params_[0].grad.add_(lg.dgamma);
  params_[1].grad.add_(lg.dbeta);
  return std::move(lg.dx);
}

std::size_t HeadBlock::cache_bytes(const Tensor& x) const {
  return (x.numel() + x.dim(0)) * sizeof(float);
}

}  // namespace autopipe::model
