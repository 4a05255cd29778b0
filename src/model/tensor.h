// Minimal dense float32 tensor for the training-runtime substrate.
//
// Contiguous row-major float storage with rank <= 3 shapes. Storage comes
// from the process-wide model::Arena (arena.h): construction is a
// size-class cache hit in steady state, destruction returns the block to
// the cache, and moves are pointer swaps -- which is what lets the pipeline
// runtime hand micro-batch tensors across Channels without copying
// payloads. Copies remain deep (value semantics), and are counted by the
// arena so the hot path can prove it makes none.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "model/arena.h"
#include "util/rng.h"

namespace autopipe::model {

class Tensor {
 public:
  Tensor() = default;
  /// Zero-filled, like the std::vector storage this replaced.
  explicit Tensor(std::vector<int> shape);

  static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }
  /// Storage is NOT cleared: for op outputs whose kernel assigns every
  /// element, skipping the zero-fill pass saves a full write sweep.
  static Tensor uninitialized(std::vector<int> shape);
  static Tensor full(std::vector<int> shape, float value);
  /// Gaussian init with the given stddev (deterministic via rng).
  static Tensor randn(std::vector<int> shape, util::Rng& rng,
                      float stddev = 1.0f);

  int rank() const { return static_cast<int>(shape_.size()); }
  int dim(int i) const { return shape_[i]; }
  const std::vector<int>& shape() const { return shape_; }
  std::size_t numel() const { return data_.size(); }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float& at(std::size_t i) { return data_.data()[i]; }
  float at(std::size_t i) const { return data_.data()[i]; }

  /// Elementwise in-place accumulate; shapes must match.
  void add_(const Tensor& other);
  /// Elementwise in-place product; shapes must match.
  void mul_(const Tensor& other);
  void scale_(float factor);
  void fill_(float value);

  /// Splits along dim 0 into [0, rows) and [rows, dim0) -- micro-batch
  /// slicing (§III-C) splits the batch dimension this way.
  std::pair<Tensor, Tensor> split_rows(int rows) const;
  /// Inverse of split_rows.
  static Tensor concat_rows(const Tensor& a, const Tensor& b);

  std::string shape_string() const;

 private:
  Tensor(std::vector<int> shape, bool zeroed);

  std::vector<int> shape_;
  ArenaBuffer data_;
};

/// Max |a-b| over all elements; shapes must match.
double max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace autopipe::model
