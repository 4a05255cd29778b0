#include "runtime/train_session.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "model/arena.h"
#include "runtime/stage_failure.h"
#include "util/logging.h"

namespace autopipe::runtime {

TrainSession::TrainSession(const TrainSessionOptions& options)
    : options_(options),
      model_(options.spec),
      corpus_(options.spec.vocab, options.data_seed),
      adam_(options.lr) {
  init_runtime();
}

TrainSession::TrainSession(const TrainSessionOptions& options,
                           const ckpt::TrainState& state)
    : options_(options),
      model_(options.spec),
      corpus_(options.spec.vocab, options.data_seed),
      adam_(options.lr) {
  adam_.set_state(ckpt::apply_train_state(state, model_));
  corpus_.set_rng_state(state.data_rng);
  step_ = state.step;
  init_runtime();
}

void TrainSession::init_runtime() {
  if (options_.counts.empty()) {
    throw std::invalid_argument("TrainSession: counts must not be empty");
  }
  if (options_.micro_batch < 1 || options_.num_micro_batches < 1) {
    throw std::invalid_argument("TrainSession: batch shape must be positive");
  }
  runtime_ = std::make_unique<PipelineRuntime>(model_, options_.counts);
  schedule_ = runtime_->make_schedule(options_.kind,
                                      options_.num_micro_batches,
                                      options_.sliced);
  // Pre-grow the tensor arena to the memory model's per-stage prediction
  // (schedule-dependent in-flight stashes + transient working set), so
  // steady-state iterations run on size-class cache hits with no slab
  // growth mid-iteration. The estimate is conservative; reserve() only
  // tops up capacity the arena doesn't already have spare.
  const int n = static_cast<int>(options_.counts.size());
  const double tokens =
      static_cast<double>(options_.micro_batch) * options_.spec.seq;
  const double per_block_stash =
      16.0 * tokens * options_.spec.hidden * sizeof(float);
  double reserve_bytes = 0;
  for (int s = 0; s < n; ++s) {
    costmodel::StageFootprint fp;
    fp.param_bytes =
        static_cast<double>(model_.param_count()) * sizeof(float) / n;
    fp.stash_bytes = options_.counts[s] * per_block_stash;
    fp.work_bytes = 4.0 * per_block_stash;
    const costmodel::MemoryEstimate est = costmodel::stage_memory(
        fp, s, n, options_.kind, options_.num_micro_batches, /*chunks=*/1,
        std::numeric_limits<double>::infinity());
    reserve_bytes += est.activation_bytes + est.working_bytes;
  }
  model::Arena::global().reserve(static_cast<std::size_t>(reserve_bytes));
  loss_scale_ = 1.0 / (static_cast<double>(options_.micro_batch) *
                       options_.num_micro_batches * options_.spec.seq);
  // Guards live on the session, so the per-iteration runtime reads them
  // through stable pointers into this object. Leaving the pointers null
  // when every knob is off keeps the hot path untouched.
  if (options_.guard.any()) {
    options_.run.guard = &options_.guard;
    options_.run.guard_counters = &guard_counters_;
  }
  norm_guard_ =
      guard::NormGuard(options_.guard.norm_window, options_.guard.norm_tolerance);
  refresh_weight_sentinel();
  if (!options_.ckpt_dir.empty() && options_.ckpt_interval > 0) {
    ckpt::Storage& storage =
        options_.storage != nullptr ? *options_.storage : posix_;
    ckpt::WriterOptions wopts;
    wopts.keep_last = options_.ckpt_keep;
    writer_ = std::make_unique<ckpt::CheckpointWriter>(
        storage, options_.ckpt_dir, wopts);
  }
}

double TrainSession::step() {
  // Weight guard: verify the between-steps state is still exactly what the
  // last clean mutation left behind, *before* any of it feeds a forward
  // pass. The check reads the live floats in place against the sentinel.
  if (options_.guard.weight_interval > 0 && weight_sentinel_valid_ &&
      step_ % options_.guard.weight_interval == 0) {
    ++guard_counters_.weight_checks;
    if (guard::weight_crc(model_, adam_.m(), adam_.v()) != weight_sentinel_) {
      ++guard_counters_.weight_failures;
      throw StageFailure(FailureKind::Corruption, -1,
                         "weight-state checksum mismatch at step " +
                             std::to_string(step_) +
                             " (weights or optimizer state corrupted "
                             "between steps)");
    }
  }
  // Snapshot the data stream so a failed attempt can be rewound: the batch
  // draw advances the corpus RNG, and a supervisor retrying this step must
  // see the identical batch or the retried run diverges from the unfaulted
  // one. Parameters and optimizer state need no snapshot -- they only
  // mutate in adam_.step(), after the fallible pipeline run succeeded.
  const util::Rng::State data_rng = corpus_.rng_state();
  const model::Batch batch = corpus_.next_batch(
      options_.micro_batch * options_.num_micro_batches, options_.spec.seq);
  const std::vector<model::Batch> micro =
      model::SyntheticCorpus::split_micro_batches(batch, options_.spec.seq,
                                                  options_.micro_batch);
  model_.zero_grads();
  IterationResult result;
  try {
    result = runtime_->run_iteration(schedule_, micro, loss_scale_,
                                     options_.run);
  } catch (...) {
    corpus_.set_rng_state(data_rng);
    throw;
  }
  // A non-finite loss is always fatal for the step, guards or not:
  // training on NaN silently poisons every parameter, which is the one
  // outcome this layer exists to prevent. Rewind so the step is retryable.
  if (!std::isfinite(result.loss)) {
    ++guard_counters_.nonfinite_failures;
    corpus_.set_rng_state(data_rng);
    throw StageFailure(FailureKind::Corruption, -1,
                       "non-finite loss at step " + std::to_string(step_) +
                           " (corrupted activations or parameters)");
  }
  // Norm guard: judge this step's gradients against the calibrated window
  // of clean-step norms, before the optimizer consumes them.
  if (options_.guard.norm_window > 0) {
    ++guard_counters_.norm_checks;
    const double norm = guard::grad_max_abs(model_);
    if (norm_guard_.observe(norm)) {
      ++guard_counters_.norm_trips;
      corpus_.set_rng_state(data_rng);
      throw StageFailure(FailureKind::Corruption, -1,
                         "gradient norm guard tripped at step " +
                             std::to_string(step_) + " (|grad|max " +
                             std::to_string(norm) + " exceeds " +
                             std::to_string(options_.guard.norm_tolerance) +
                             "x the calibrated clean-step maximum)");
    }
  }
  adam_.step(model_);
  ++step_;
  // Refresh the sentinel only on steps where it will be consumed: before
  // the next entry check (step_ is now the step the check guards) or to
  // stamp a checkpoint verified-clean. Skipping the other steps is what
  // makes weight_interval > 1 cheap; the cost is the documented periodic
  // detection window.
  if (options_.guard.weight_interval > 0 &&
      (step_ % options_.guard.weight_interval == 0 ||
       (writer_ != nullptr && step_ % options_.ckpt_interval == 0))) {
    refresh_weight_sentinel();
  } else if (options_.guard.weight_interval > 0) {
    // State moved past the sentinel without a refresh: it no longer
    // describes the live floats, so neither the entry check nor the
    // checkpoint stamp may trust it until the next refresh.
    weight_sentinel_valid_ = false;
  }
  losses_.push_back(result.loss);
  maybe_checkpoint();
  return result.loss;
}

void TrainSession::refresh_weight_sentinel() {
  if (options_.guard.weight_interval <= 0) return;
  weight_sentinel_ = guard::weight_crc(model_, adam_.m(), adam_.v());
  weight_sentinel_valid_ = true;
}

ckpt::TrainState TrainSession::capture() const {
  return ckpt::capture_train_state(model_, adam_, corpus_.rng_state(),
                                   step_, options_.counts,
                                   static_cast<int>(options_.kind));
}

void TrainSession::maybe_checkpoint() {
  if (writer_ == nullptr || step_ % options_.ckpt_interval != 0) return;
  try {
    // Records are serialized straight from the live tensors and moments:
    // the same bytes as writing capture(), without its copy of the state.
    // With the weight guard on, the sentinel is exactly the state being
    // written (refreshed after the optimizer step), so the checkpoint is
    // stamped verified-clean and the corruption rung can trust it.
    writer_->write(ckpt::live_view(model_, adam_, corpus_.rng_state(), step_,
                                   options_.counts,
                                   static_cast<int>(options_.kind)),
                   weight_sentinel_valid_ ? &weight_sentinel_ : nullptr);
    ++checkpoints_written_;
  } catch (const ckpt::StorageError& e) {
    // A lost checkpoint must never lose the run: note it and train on. The
    // previously committed checkpoints are intact by the commit protocol.
    ++checkpoint_failures_;
    last_checkpoint_error_ = e.what();
    AP_LOG(warn) << "checkpoint at step " << step_ << " failed: " << e.what();
  }
}

}  // namespace autopipe::runtime
