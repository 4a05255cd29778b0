// Discrete-event execution of a pipeline Schedule.
//
// This is the "actual run" substitute for the paper's GPU cluster. It times
// the schedule's dependency graph (sim::build_schedule_graph, the graph
// core::evaluate_schedule times too): every schedule op is a task on its
// device (serialized in schedule order), and activations and gradients
// travel over lagged cross-device edges. On top of that graph -- unlike the
// paper-faithful analytic simulator -- each op can pay a fixed
// kernel-launch overhead and multiplicative jitter, devices can end with a
// gradient all-reduce, and a FaultPlan can stretch ops and transfers or
// crash a device. The overhead term produces the stable simulator-vs-actual
// bias of Fig. 11.
#pragma once

#include <cstdint>
#include <vector>

#include "core/schedule.h"
#include "faults/fault_plan.h"

namespace autopipe::sim {

struct ExecOptions {
  /// Fixed per-op overhead (kernel launches, framework bookkeeping).
  double per_op_overhead_ms = 0.0;
  /// Uniform multiplicative noise: duration *= 1 + jitter_frac*U(-1,1).
  double jitter_frac = 0.0;
  std::uint64_t seed = 1;
  /// Hybrid data-parallel training: per-device gradient all-reduce time
  /// (size = devices; empty = none). Each device's all-reduce starts after
  /// its last backward, so early stages -- which drain last -- put theirs
  /// on the critical path, exactly as Megatron-LM's non-overlapped reduce
  /// does.
  std::vector<double> allreduce_ms;
  /// Deterministic fault injection (faults/fault_plan.h): straggler windows
  /// multiply op durations, link spikes/outages stretch transfers, and a
  /// device crash truncates the trace (see ExecResult::failure). Null or an
  /// empty plan is bit-identical to the fault-free path.
  const faults::FaultPlan* faults = nullptr;
};

/// What a device crash did to the iteration (sim analogue of the runtime's
/// StageFailure): which device died when, and how many schedule ops were
/// lost -- directly or by depending on a dead op.
struct FailureReport {
  bool crashed = false;
  int device = -1;
  double at_ms = 0;
  int completed_ops = 0;
  int lost_ops = 0;
};

struct TimedOp {
  core::ScheduleOp op;
  int device = 0;
  double start_ms = 0;
  double end_ms = 0;
};

struct ExecResult {
  double iteration_ms = 0;
  /// Startup overhead: when the last device starts its first forward.
  double startup_ms = 0;
  std::vector<TimedOp> trace;          ///< completed ops, in global start order
  std::vector<double> device_busy_ms;  ///< total compute time per device
  /// Crash outcome; `failure.crashed == false` on fault-free runs, in which
  /// case the trace covers every schedule op.
  FailureReport failure;
  /// Failed transfer attempts paid to link outages across the iteration.
  int link_retries = 0;
};

/// Times `schedule` on as many devices as it has stages. Validates the
/// schedule first; throws std::logic_error on malformed schedules.
ExecResult execute(const core::Schedule& schedule, const ExecOptions& = {});

}  // namespace autopipe::sim
