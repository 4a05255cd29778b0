// Thread-per-device pipeline training runtime.
//
// Executes a core::Schedule (1F1B, GPipe, AutoPipe's sliced 1F1B, or
// Megatron-LM's interleaved 1F1B) on a real TransformerModel partitioned
// into global stages: one std::thread per device, tagged channels per
// global-stage boundary for activations and gradients. Under the
// interleaved schedule each device hosts `chunks` model chunks (global
// stage g = chunk*devices + device). This is the repo's stand-in for the
// paper's Megatron-LM + NCCL backend; its purpose is to demonstrate that
// every schedule AutoPipe emits or compares against computes the same
// gradients as single-process training (§II-B's consistency).
#pragma once

#include <vector>

#include "core/partition.h"
#include "core/schedule.h"
#include "faults/fault_plan.h"
#include "model/data.h"
#include "model/transformer.h"
#include "runtime/cancel.h"
#include "runtime/health.h"

namespace autopipe::faults {
class SdcInjector;
}
namespace autopipe::guard {
struct GuardOptions;
struct GuardCounters;
}

namespace autopipe::runtime {

struct IterationResult {
  double loss = 0;  ///< scaled cross entropy summed over all micro-batches
  /// Transient op faults absorbed in place by worker-level retry (summed
  /// over devices); 0 on fault-free runs.
  int transient_retries = 0;
};

/// Per-iteration knobs beyond the schedule itself. Defaults reproduce the
/// historical run_iteration behaviour except that channel waits are bounded
/// by `recv_deadline_ms` -- nothing in a healthy iteration waits that long,
/// and a hung/dead peer now surfaces as StageFailure instead of deadlock.
struct RunOptions {
  /// Activation checkpointing (§II-C); both modes produce identical
  /// gradients.
  bool recompute = true;
  /// Deterministic fault injection (null or empty = bit-identical to the
  /// fault-free path).
  const faults::FaultPlan* faults = nullptr;
  /// Watchdog deadline for every channel wait (0 = wait forever,
  /// closure-aware). Generous default: a healthy iteration never waits
  /// seconds on one message, but sanitizer builds are slow.
  double recv_deadline_ms = 30000;
  /// Exponential-backoff base for in-place transient retries.
  double backoff_base_ms = 0.05;
  /// Transient faults injecting more failures than this escalate to
  /// StageFailure(Transient).
  int max_transient_retries = 3;
  /// Optional per-device heartbeat board (runtime/health.h). When set, the
  /// runtime reset()s it for this iteration's device count and every worker
  /// publishes progress watermarks -- the supervisor's watchdog reads them
  /// from outside the iteration. Null = no reporting.
  HealthBoard* health = nullptr;
  /// Optional cooperative cancellation token (runtime/cancel.h). The
  /// watchdog cancels it to abort a wedged iteration: workers check it
  /// before each op and between receive poll slices, and injected hangs
  /// park on it. A worker failure also cancels it (with the failure text)
  /// so hung peers don't ride out their full recv deadline. Null = no
  /// external abort path (waits bounded by recv_deadline_ms only).
  CancelToken* cancel = nullptr;
  /// Poll slice for cancellation-aware channel waits (only with `cancel`).
  double cancel_poll_ms = 25;
  /// Integrity guards over the compute path (guard/guard.h). Null (or all
  /// knobs off) = bitwise-identical execution: guards only ever read tensor
  /// bytes. Detections throw StageFailure(Corruption).
  const guard::GuardOptions* guard = nullptr;
  /// Detection bookkeeping (required whenever `guard` enables any check).
  guard::GuardCounters* guard_counters = nullptr;
  /// Seeded in-flight bit-flip injection (faults/sdc.h). Corruption is
  /// applied to boundary tensors *after* the producer's CRC stamp, modelling
  /// corruption in transfer/SRAM that the handoff guard must catch. Null or
  /// nothing armed = bit-identical.
  faults::SdcInjector* sdc = nullptr;
};

class PipelineRuntime {
 public:
  /// `counts` assigns the model's blocks to global stages in global-stage
  /// order (devices*chunks entries; with chunks == 1 this is the plain
  /// per-stage partition). Device d hosts global stages
  /// {d, devices + d, ...}.
  PipelineRuntime(model::TransformerModel& model, std::vector<int> counts,
                  int chunks = 1);

  int num_devices() const {
    return static_cast<int>(counts_.size()) / chunks_;
  }
  int chunks() const { return chunks_; }

  /// Runs one training iteration under `schedule`. Gradients accumulate
  /// into the model (call model.zero_grads() between iterations).
  /// `loss_scale` should be 1 / total mini-batch tokens so micro-batch
  /// gradients sum to full-batch gradients. A worker failure closes every
  /// channel (so no peer blocks past one scheduling quantum) and rethrows
  /// as StageFailure; gradients accumulated before the failure are left in
  /// the model -- TrainSession::step re-zeroes them on the next attempt.
  IterationResult run_iteration(const core::Schedule& schedule,
                                const std::vector<model::Batch>& micro_batches,
                                double loss_scale,
                                const RunOptions& options = {});

  /// Builds a neutral schedule (unit durations) of the given kind for this
  /// partition -- durations are irrelevant to the runtime, only op order
  /// and halving matter. `sliced` applies to AutoPipeSliced only.
  core::Schedule make_schedule(costmodel::ScheduleKind kind, int micro_batches,
                               int sliced = 0) const;

 private:
  model::TransformerModel& model_;
  std::vector<int> counts_;  ///< blocks per global stage
  int chunks_;
};

}  // namespace autopipe::runtime
