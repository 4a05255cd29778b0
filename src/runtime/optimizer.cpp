#include "runtime/optimizer.h"

#include <cmath>

#include "model/kernels.h"
#include "runtime/adam_kernels.h"

namespace autopipe::runtime {

void Sgd::step(model::TransformerModel& model) {
  for (int b = 0; b < model.num_blocks(); ++b) {
    for (auto& p : model.block(b).params()) {
      for (std::size_t i = 0; i < p.value.numel(); ++i) {
        p.value.data()[i] -= static_cast<float>(lr_) * p.grad.at(i);
      }
    }
  }
}

void Adam::step(model::TransformerModel& model) {
  // Lazily allocate moments in (block, param) order.
  if (m_.empty()) {
    for (int b = 0; b < model.num_blocks(); ++b) {
      for (auto& p : model.block(b).params()) {
        m_.emplace_back(p.value.numel(), 0.0f);
        v_.emplace_back(p.value.numel(), 0.0f);
      }
    }
  }
  ++t_;
  const adam_kernels::AdamStep k{
      beta1_, beta2_, 1.0 - std::pow(beta1_, static_cast<double>(t_)),
      1.0 - std::pow(beta2_, static_cast<double>(t_)), lr_, eps_};
  static const auto update = model::kernels::avx2_supported()
                                 ? &adam_kernels::avx2_adam_update
                                 : &adam_kernels::adam_update;
  std::size_t slot = 0;
  for (int b = 0; b < model.num_blocks(); ++b) {
    for (auto& p : model.block(b).params()) {
      update(k, p.grad.data(), m_[slot].data(), v_[slot].data(),
             p.value.data(), p.value.numel());
      ++slot;
    }
  }
}

namespace adam_kernels {

void adam_update(const AdamStep& k, const float* grad, float* m, float* v,
                 float* value, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double g = grad[i];
    m[i] = static_cast<float>(k.beta1 * m[i] + (1.0 - k.beta1) * g);
    v[i] = static_cast<float>(k.beta2 * v[i] + (1.0 - k.beta2) * g * g);
    const double mh = m[i] / k.bc1;
    const double vh = v[i] / k.bc2;
    value[i] -= static_cast<float>(k.lr * mh / (std::sqrt(vh) + k.eps));
  }
}

}  // namespace adam_kernels

}  // namespace autopipe::runtime
