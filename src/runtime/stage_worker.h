// Per-device execution of a pipeline schedule on real model blocks.
//
// A device owns one block range per model chunk (one chunk for plain
// 1F1B/GPipe/sliced schedules; v chunks under Megatron-LM's interleaved
// schedule, where global model stage g = chunk*devices + device). It
// executes its op list from a core::Schedule: forwards stash block inputs
// (activation checkpointing), backwards recompute-and-accumulate gradients.
// The device holding the last global stage computes the scaled
// cross-entropy loss. Devices only interact through tagged Channels
// indexed by global stage boundary, so the only ordering constraints are
// the schedule's own dependencies -- exactly what a distributed pipeline
// backend (Megatron-LM + NCCL) enforces.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "core/schedule.h"
#include "model/data.h"
#include "model/transformer.h"
#include "runtime/channel.h"

namespace autopipe::guard {
class HandoffLedger;
}

namespace autopipe::runtime {

struct RunOptions;

struct BlockRange {
  int first = 0;
  int count = 0;
};

struct StageContext {
  int device = 0;
  int num_devices = 1;
  int chunks = 1;
  /// blocks[chunk]: this device's block range for that model chunk.
  std::vector<BlockRange> blocks;
  model::TransformerModel* model = nullptr;
  const core::Schedule* schedule = nullptr;
  /// Per-micro-batch inputs and targets (whole, unsliced).
  const std::vector<model::Batch>* micro_batches = nullptr;
  /// Loss normalization (1 / total mini-batch tokens): makes micro-batch
  /// and half-micro-batch gradients add up to the full-batch gradients.
  double loss_scale = 1.0;
  int seq_len = 0;
  /// The iteration's knobs (recompute, faults, deadlines, health, cancel,
  /// guards, SDC injection), shared by every worker; never null.
  const RunOptions* run = nullptr;
  /// forward_channels[g]: activations crossing global boundary g -> g+1;
  /// backward_channels[g]: gradients crossing g+1 -> g. Size = global
  /// stages - 1.
  std::vector<Channel>* forward_channels = nullptr;
  std::vector<Channel>* backward_channels = nullptr;
  /// Handoff CRC ledger, set when `run->guard` enables handoff_crc.
  guard::HandoffLedger* ledger = nullptr;
  /// Out-param (owned by the runtime): in-place transient retries consumed
  /// by this worker.
  int* transient_retries = nullptr;
};

/// Runs every op of `ctx.schedule->order[ctx.device]`; returns this
/// device's summed loss contribution (non-zero only where the last global
/// stage lives).
double run_stage(const StageContext& ctx);

/// Slices the whole micro-batch for `half` (-1: whole; 0/1: halves by
/// samples). Returns ids and targets of the slice.
model::Batch slice_half(const model::Batch& whole, int seq_len, int half);

}  // namespace autopipe::runtime
