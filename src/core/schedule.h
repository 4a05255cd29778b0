// Concrete pipeline schedules as per-device op orders.
//
// The analytic simulator (simulator.h) evaluates 1F1B timing in closed
// recurrences; this module instead *constructs* the schedules -- including
// the baselines (GPipe, Megatron-LM's interleaved 1F1B) and AutoPipe's
// sliced 1F1B -- as explicit per-device execution orders that the
// discrete-event executor (sim/executor.h) times and the thread runtime
// (runtime/pipeline_runtime.h) really executes.
#pragma once

#include <span>
#include <vector>

#include "core/simulator.h"
#include "costmodel/memory.h"

namespace autopipe::core {

using costmodel::ScheduleKind;

struct ScheduleOp {
  OpType type = OpType::Forward;
  int micro_batch = 0;
  /// -1: whole micro-batch; 0/1: first/second half of a sliced micro-batch.
  int half = -1;
  /// Virtual model chunk (Megatron interleaved schedule); 0 otherwise.
  int chunk = 0;
  /// §III-C blockage fix: this op's outgoing activation transfer is
  /// cancelled and aggregated with its sibling half's transfer.
  bool aggregated_comm = false;

  bool is_half() const { return half >= 0; }
};

struct Schedule {
  ScheduleKind kind = ScheduleKind::OneFOneB;
  int num_stages = 0;
  int num_micro_batches = 0;
  int chunks = 1;
  int sliced_micro_batches = 0;
  /// Full activation-tensor transfer time across each global stage boundary
  /// (size chunks*num_stages - 1), frozen from the CommModel at build time
  /// so a schedule is self-contained for execution.
  std::vector<double> boundary_comm_ms;
  /// durations[device][chunk]: per-chunk whole-micro-batch fwd/bwd times.
  std::vector<std::vector<StageCost>> durations;
  /// order[device]: the exact execution order on that device.
  std::vector<std::vector<ScheduleOp>> order;

  double op_duration_ms(int device, const ScheduleOp& op) const;
  /// Transfer time across global boundary g -> g+1. Throws (out_of_range,
  /// a logic_error) when the boundary vector is malformed.
  double hop_ms(int boundary) const {
    return boundary_comm_ms.at(static_cast<std::size_t>(boundary));
  }
  /// Global model-stage index of (device, chunk): chunk*num_stages + device.
  int global_stage(int device, int chunk) const {
    return chunk * num_stages + device;
  }
};

/// Plain non-interleaved 1F1B (Megatron-LM default). Requires m >= stages.
/// `comm` prices each boundary; a plain double converts to the uniform model.
Schedule build_1f1b(std::span<const StageCost> stages, int micro_batches,
                    const CommModel& comm);

/// GPipe: all forwards, then all backwards in reverse micro-batch order.
Schedule build_gpipe(std::span<const StageCost> stages, int micro_batches,
                     const CommModel& comm);

/// AutoPipe: 1F1B with the first `sliced` micro-batches split in half and
/// the Warmup phase rescheduled (Fig. 8(b)); `sliced == 0` degenerates to
/// plain 1F1B.
Schedule build_sliced_1f1b(std::span<const StageCost> stages,
                           int micro_batches, const CommModel& comm,
                           int sliced);

/// Megatron-LM interleaved 1F1B: `chunk_costs[device][chunk]` are the
/// per-chunk costs; every device hosts the same number of chunks and
/// micro_batches must be a multiple of the device count.
Schedule build_interleaved(
    const std::vector<std::vector<StageCost>>& chunk_costs, int micro_batches,
    const CommModel& comm);

/// Zero-bubble (2BP-style) schedule: backward is split into a grad-input op
/// (BackwardInput, propagates dx upstream) and a grad-weight op
/// (BackwardWeight, local). A deterministic event-driven greedy places each
/// device's ops: warmup forwards up to n - device in flight, grad-input as
/// soon as its downstream dx arrives, and deferred grad-weight ops filling
/// the bubbles -- capped at n - device deferred micro-batches so the memory
/// model's W-deferral bound holds. When `stages` carries no B/W split
/// (bwd_input_ms == bwd_weight_ms == 0) the builder assumes 2/3 : 1/3 of
/// bwd_ms. Requires m >= stages.
Schedule make_zero_bubble(std::span<const StageCost> stages, int micro_batches,
                          const CommModel& comm);

/// Options for the shared ScheduleKind dispatch below.
struct BuildScheduleOptions {
  int sliced = 0;  ///< AutoPipeSliced: leading micro-batches split in half
  int chunks = 1;  ///< Interleaved: virtual model chunks per device
};

/// Single-site ScheduleKind -> builder dispatch: every caller that needs "a
/// schedule of kind K over these per-device costs" (runtime, supervisor,
/// planner, CLIs) routes through here so a new kind is a one-switch change.
/// Interleaved replicates `stages[d]` across `opts.chunks` chunks per
/// device. Throws std::invalid_argument on an out-of-range kind.
Schedule build_schedule(ScheduleKind kind, std::span<const StageCost> stages,
                        int micro_batches, const CommModel& comm,
                        const BuildScheduleOptions& opts = {});

/// Structural invariants: every (micro-batch, chunk, half-pair) appears on
/// every device exactly once per direction -- where "backward direction"
/// means either one fused Backward or a BackwardInput/BackwardWeight pair in
/// that order -- forwards precede their own backwards in device order, and
/// the boundary cost vector has one finite non-negative entry per global
/// stage boundary. Throws std::logic_error on violation.
void validate(const Schedule& schedule);

/// One scheduled op with its analytic timing (evaluate_schedule).
struct EvalOp {
  ScheduleOp op;
  int device = 0;
  double start_ms = 0;
  double end_ms = 0;
  /// Binding predecessor index into ScheduleEval::ops (-1 at sources).
  int critical_pred = -1;
  bool on_critical_path = false;
};

/// Analytic longest-path timing of a Schedule: the schedule-graph analogue
/// of simulate_pipeline's recurrences, valid for every ScheduleKind.
struct ScheduleEval {
  double iteration_ms = 0;
  /// When the last device starts its first forward (startup overhead §II-B).
  double startup_ms = 0;
  std::vector<EvalOp> ops;
  /// Indices into `ops` along the critical path, in execution order.
  std::vector<int> critical_path;
};

/// Evaluates `schedule` by longest-path relaxation over its dependency graph
/// (sim::build_schedule_graph: intra-device order, cross-stage transfers
/// with halved/aggregated sliced-half lags), with ties broken toward the
/// higher device ("closest to the last pipeline stage", Fig. 4).
/// sim::execute times the same graph, so this matches its fault-free,
/// zero-overhead timing exactly. Validates the schedule; throws
/// std::logic_error on malformed or cyclic schedules.
ScheduleEval evaluate_schedule(const Schedule& schedule);

}  // namespace autopipe::core
