// Analytic per-block cost model ("model configs" in Fig. 2).
//
// The paper collects per-block runtime statistics offline (a few minutes of
// profiling). We substitute an analytic FLOP/bytes model of the same shape:
// a transformer is decomposed at sub-layer granularity (§III-B, Fig. 3) into
//
//   [Embedding] [ResidualAttentionBlock ResidualFFNBlock] x L [FinalNormHead]
//
// and every block carries forward/backward time, parameter bytes, the
// activation stash kept per in-flight micro-batch under activation
// checkpointing (§II-C), the transient working set, and the bytes of the
// activation tensor crossing a stage boundary. This is exactly the
// information the Planner, Slicer and memory model consume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "costmodel/device.h"
#include "costmodel/model_zoo.h"

namespace autopipe::costmodel {

enum class BlockKind { Embedding, Attention, FFN, Head };

const char* to_string(BlockKind kind);

struct Block {
  std::string name;
  BlockKind kind = BlockKind::Attention;
  double fwd_ms = 0;    ///< forward time of one micro-batch
  double bwd_ms = 0;    ///< backward time; includes recompute when enabled
  /// B/W decomposition of bwd_ms for zero-bubble schedules: the grad-input
  /// pass (B, includes the recompute) and the grad-weight pass (W).
  /// Invariant: bwd_input_ms == bwd_ms - bwd_weight_ms, so the two sum to
  /// bwd_ms up to that subtraction's rounding.
  double bwd_input_ms = 0;
  double bwd_weight_ms = 0;
  double param_bytes = 0;
  double stash_bytes = 0;   ///< checkpointed stash per in-flight micro-batch
  double work_bytes = 0;    ///< transient peak while computing one micro-batch
  double output_bytes = 0;  ///< activation sent onward if a cut follows
  /// Bytes of B-state (incoming grads + recomputed intermediates) a split
  /// backward stashes between its B and its deferred W pass.
  double bw_state_bytes = 0;
  /// Transformer-layer units for Table-II style reporting: attention and FFN
  /// blocks are each 0.5 layers; embedding and head are 0.
  double layer_units = 0;
};

struct TrainConfig {
  int micro_batch_size = 4;
  int seq_len = 0;        ///< 0 -> the model's default sequence length
  bool recompute = true;  ///< activation checkpointing (used in all paper runs)
};

/// Everything the Planner/Slicer need about one (model, micro-batch, device)
/// combination. `comm_ms` is the scalar `Comm` of §III-B: the cost of moving
/// one activation tensor between adjacent stages.
struct ModelConfig {
  ModelSpec spec;
  TrainConfig train;
  DeviceProfile device;
  LinkProfile link;
  std::vector<Block> blocks;
  double comm_ms = 0;

  int num_blocks() const { return static_cast<int>(blocks.size()); }
  double total_fwd_ms() const;
  double total_bwd_ms() const;
  double total_param_bytes() const;
  /// Sum of layer_units (== spec.num_layers for transformer models).
  double total_layer_units() const;
};

ModelConfig build_model_config(const ModelSpec& spec, const TrainConfig& train,
                               const DeviceProfile& device,
                               const LinkProfile& link);

/// Bytes of the fp16 activation tensor crossing a stage boundary
/// (micro_batch_size x seq x hidden) -- the volume a topology-aware
/// CommModel prices each hop with. `config.comm_ms` is exactly this volume
/// priced on `config.link`.
double activation_bytes(const ModelConfig& config);

/// Convenience: zoo model + defaults (RTX 3090, 100G IB-class link).
ModelConfig build_model_config(const ModelSpec& spec, const TrainConfig& train);

}  // namespace autopipe::costmodel
