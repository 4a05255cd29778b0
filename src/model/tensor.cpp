#include "model/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace autopipe::model {

namespace {

std::size_t shape_numel(const std::vector<int>& shape) {
  std::size_t n = 1;
  for (int d : shape) {
    if (d <= 0) throw std::invalid_argument("non-positive tensor dimension");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), /*zeroed=*/true) {}

Tensor::Tensor(std::vector<int> shape, bool zeroed)
    : shape_(std::move(shape)), data_(shape_numel(shape_), zeroed) {}

Tensor Tensor::uninitialized(std::vector<int> shape) {
  return Tensor(std::move(shape), /*zeroed=*/false);
}

Tensor Tensor::full(std::vector<int> shape, float value) {
  Tensor t = uninitialized(std::move(shape));
  t.fill_(value);
  return t;
}

Tensor Tensor::randn(std::vector<int> shape, util::Rng& rng, float stddev) {
  Tensor t = uninitialized(std::move(shape));
  float* p = t.data();
  for (std::size_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng.next_gaussian()) * stddev;
  }
  return t;
}

void Tensor::add_(const Tensor& other) {
  if (!same_shape(other)) throw std::invalid_argument("add_: shape mismatch");
  float* a = data();
  const float* b = other.data();
  for (std::size_t i = 0; i < numel(); ++i) a[i] += b[i];
}

void Tensor::mul_(const Tensor& other) {
  if (!same_shape(other)) throw std::invalid_argument("mul_: shape mismatch");
  float* a = data();
  const float* b = other.data();
  for (std::size_t i = 0; i < numel(); ++i) a[i] *= b[i];
}

void Tensor::scale_(float factor) {
  float* p = data();
  for (std::size_t i = 0; i < numel(); ++i) p[i] *= factor;
}

void Tensor::fill_(float value) {
  std::fill(data(), data() + numel(), value);
}

std::pair<Tensor, Tensor> Tensor::split_rows(int rows) const {
  if (rank() < 1 || rows <= 0 || rows >= dim(0)) {
    throw std::invalid_argument("split_rows: bad row count");
  }
  std::vector<int> head_shape = shape_, tail_shape = shape_;
  head_shape[0] = rows;
  tail_shape[0] = dim(0) - rows;
  Tensor head = uninitialized(head_shape), tail = uninitialized(tail_shape);
  const std::size_t stride = numel() / static_cast<std::size_t>(dim(0));
  std::memcpy(head.data(), data(), rows * stride * sizeof(float));
  std::memcpy(tail.data(), data() + rows * stride,
              (numel() - rows * stride) * sizeof(float));
  return {std::move(head), std::move(tail)};
}

Tensor Tensor::concat_rows(const Tensor& a, const Tensor& b) {
  if (a.rank() != b.rank() || a.rank() < 1) {
    throw std::invalid_argument("concat_rows: rank mismatch");
  }
  for (int i = 1; i < a.rank(); ++i) {
    if (a.dim(i) != b.dim(i)) {
      throw std::invalid_argument("concat_rows: trailing shape mismatch");
    }
  }
  std::vector<int> shape = a.shape_;
  shape[0] = a.dim(0) + b.dim(0);
  Tensor out = uninitialized(shape);
  std::memcpy(out.data(), a.data(), a.numel() * sizeof(float));
  std::memcpy(out.data() + a.numel(), b.data(), b.numel() * sizeof(float));
  return out;
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << '[';
  for (int i = 0; i < rank(); ++i) os << (i ? "x" : "") << shape_[i];
  os << ']';
  return os.str();
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("max_abs_diff: shapes");
  double worst = 0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::fabs(static_cast<double>(a.at(i)) - b.at(i)));
  }
  return worst;
}

}  // namespace autopipe::model
