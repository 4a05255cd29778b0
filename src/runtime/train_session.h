// Checkpointing training driver over the thread-per-device runtime.
//
// TrainSession owns the full training loop state -- model, Adam optimizer,
// synthetic data stream, pipeline runtime and schedule -- and checkpoints
// it at iteration boundaries through ckpt::CheckpointWriter (DESIGN.md §7).
// The checkpoint moment is *after* the optimizer step and after the data
// stream advanced, so a resumed session continues with exactly the batch
// the uninterrupted run would have drawn next: for the same partition, a
// run resumed from step k reproduces the uninterrupted run's parameters and
// losses bit-identically (the exact-state acceptance test of
// tests/ckpt_test.cpp and the chaos_lab `ckpt` verb).
//
// Checkpoint writes that fail with a StorageError are absorbed: the failure
// is counted and training continues -- losing a checkpoint must never lose
// the run. Restores go through the ckpt reader's newest-valid-wins scan.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/schedule.h"
#include "costmodel/memory.h"
#include "guard/guard.h"
#include "model/data.h"
#include "model/transformer.h"
#include "runtime/optimizer.h"
#include "runtime/pipeline_runtime.h"

namespace autopipe::runtime {

struct TrainSessionOptions {
  model::TinySpec spec;
  std::vector<int> counts;  ///< blocks per stage (one chunk per device)
  costmodel::ScheduleKind kind = costmodel::ScheduleKind::OneFOneB;
  int sliced = 0;           ///< sliced micro-batches for AutoPipeSliced
  int micro_batch = 4;      ///< samples per micro-batch
  int num_micro_batches = 6;
  double lr = 0.01;
  std::uint64_t data_seed = 7;

  /// Checkpointing; disabled while `ckpt_dir` is empty or interval <= 0.
  std::string ckpt_dir;
  int ckpt_interval = 0;  ///< write every k-th iteration
  int ckpt_keep = 2;
  /// Storage backend for checkpoints (fault injection, in-memory tests);
  /// nullptr = a process-local PosixStorage.
  ckpt::Storage* storage = nullptr;

  /// Per-iteration runtime knobs (fault injection, health board, cancel
  /// token, recv deadlines). The pointer fields are re-read every step(),
  /// so a supervisor can re-arm fault plans and tokens between attempts via
  /// run_options().
  RunOptions run;

  /// SDC guards (guard/guard.h). All-off (the default) trains bitwise
  /// identically to a guard-free build; any detection surfaces as
  /// StageFailure(FailureKind::Corruption). Independent of the guards, a
  /// non-finite loss always fails the step with the same typed failure.
  guard::GuardOptions guard;
};

class TrainSession {
 public:
  /// Fresh run from the spec's deterministic initialisation.
  explicit TrainSession(const TrainSessionOptions& options);
  /// Resumed run: adopts a restored TrainState (parameters, optimizer,
  /// data stream, step counter). `options.counts` decides the partition the
  /// resumed run executes on -- pass `state.counts` for a bit-identical
  /// same-shape resume or a re-planned partition for elastic resume; the
  /// per-block state is independent of stage boundaries either way.
  TrainSession(const TrainSessionOptions& options,
               const ckpt::TrainState& state);

  /// One training iteration: draw the next mini-batch, run the pipeline,
  /// apply Adam, maybe checkpoint. Returns the iteration's loss.
  ///
  /// Atomic on failure: if the pipeline throws (StageFailure or otherwise),
  /// the data stream is rewound to its pre-step state and the step counter
  /// is untouched before the exception propagates, so a supervisor can
  /// retry the *same* logical iteration in place -- the retried step draws
  /// the identical batch, and since gradients are re-zeroed on entry the
  /// half-accumulated gradients of the failed attempt cannot leak into it.
  ///
  /// Guard checks run in the same atomic envelope: a weight-sentinel
  /// mismatch fails before the batch is drawn; a non-finite loss or a norm
  /// trip fails after the pipeline but *before* the optimizer mutates
  /// anything, with the stream rewound -- so every Corruption failure
  /// leaves the session retryable in place.
  double step();

  int iteration() const { return step_; }
  const std::vector<double>& losses() const { return losses_; }
  int checkpoints_written() const { return checkpoints_written_; }
  int checkpoint_failures() const { return checkpoint_failures_; }
  const std::string& last_checkpoint_error() const {
    return last_checkpoint_error_;
  }
  const std::vector<int>& counts() const { return options_.counts; }
  model::TransformerModel& model() { return model_; }
  const model::TransformerModel& model() const { return model_; }
  /// Mutable per-iteration runtime knobs -- the supervisor points
  /// `run.health` / `run.cancel` / `run.faults` at fresh objects between
  /// attempts. Takes effect on the next step().
  RunOptions& run_options() { return options_.run; }
  const core::Schedule& schedule() const { return schedule_; }
  int num_devices() const { return runtime_->num_devices(); }
  /// Detection bookkeeping across all guards (cumulative for this session).
  const guard::GuardCounters& guard_counters() const {
    return guard_counters_;
  }
  /// The optimizer, exposed so chaos harnesses can corrupt moment state
  /// between steps (the weight guard's job to catch).
  Adam& optimizer() { return adam_; }

  /// The session's state as of the last completed iteration -- exactly what
  /// a checkpoint written now would contain.
  ckpt::TrainState capture() const;

 private:
  void init_runtime();
  void maybe_checkpoint();
  /// Recomputes the weight-state sentinel from the live (params, moments).
  void refresh_weight_sentinel();

  TrainSessionOptions options_;
  model::TransformerModel model_;
  model::SyntheticCorpus corpus_;
  Adam adam_;
  std::unique_ptr<PipelineRuntime> runtime_;
  core::Schedule schedule_;
  double loss_scale_ = 0;
  int step_ = 0;
  std::vector<double> losses_;
  ckpt::PosixStorage posix_;
  std::unique_ptr<ckpt::CheckpointWriter> writer_;
  int checkpoints_written_ = 0;
  int checkpoint_failures_ = 0;
  std::string last_checkpoint_error_;
  guard::GuardCounters guard_counters_;
  guard::NormGuard norm_guard_;
  /// CRC32 over (params, Adam moments) as of the last clean mutation; only
  /// maintained when the weight guard is on.
  std::uint32_t weight_sentinel_ = 0;
  bool weight_sentinel_valid_ = false;
};

}  // namespace autopipe::runtime
