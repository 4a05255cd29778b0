// Deterministic fault injection for both execution substrates.
//
// The paper's 16-GPU testbed lives with stragglers, flaky links and outright
// device loss; this module describes such perturbations as *data* so that
// both the discrete-event executor (sim/executor.h) and the thread runtime
// (runtime/pipeline_runtime.h) can replay exactly the same failure scenario.
// A FaultPlan is pure configuration: it never touches clocks or randomness
// itself, so injecting an empty plan is bit-identical to no plan at all, and
// a seeded plan (sample_fault_plan) reproduces the same faults on every run,
// platform and thread count -- the determinism contract the recovery tests
// and the Monte-Carlo robustness evaluator (faults/robustness.h) build on.
//
// Taxonomy (DESIGN.md §6):
//   Straggler      a device computes slower inside a time window
//   LinkSpike      a stage boundary adds latency inside a time window
//   LinkOutage     a boundary drops transfers inside a window; senders retry
//                  with a fixed backoff until the window passes
//   DeviceCrash    a device dies -- at time t (simulator) or after its k-th
//                  schedule op (thread runtime) -- and never comes back
//   TransientOpFault  one op on one device fails n times before succeeding
//                  (ECC hiccup, NCCL timeout); recoverable by local retry
//   HangFault      a device wedges forever before its k-th schedule op --
//                  no exception, no progress (thread runtime only); only an
//                  external watchdog + cancellation can clear it
//   SlowOps        a device pays a fixed wall-clock delay on a run of
//                  schedule ops (thread-runtime straggler; unlike Straggler
//                  it burns real time, so the watchdog can observe it)
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace autopipe::faults {

/// Multiplicative compute slowdown on one device inside [start_ms, end_ms).
/// An op pays the multiplier when it *starts* inside the window (simple,
/// deterministic, and window-edge behaviour is explicit).
struct Straggler {
  int device = 0;
  double start_ms = 0;
  double end_ms = std::numeric_limits<double>::infinity();
  double slowdown = 1.0;  ///< duration multiplier, >= 1
};

/// Additive latency on one global-stage boundary inside [start_ms, end_ms),
/// applied to transfers that *depart* inside the window.
struct LinkSpike {
  int boundary = 0;
  double start_ms = 0;
  double end_ms = std::numeric_limits<double>::infinity();
  double extra_ms = 0;
};

/// Transient outage of one boundary: transfers departing inside
/// [start_ms, end_ms) fail; the sender retries every retry_backoff_ms until
/// a retry lands past the window (NCCL-style bounded retry loop).
struct LinkOutage {
  int boundary = 0;
  double start_ms = 0;
  double end_ms = 0;
  double retry_backoff_ms = 0.5;  ///< > 0; each failed attempt costs this
};

/// Hard, permanent device loss. The simulator kills every op on `device`
/// still running or not yet started at `at_ms` (and, transitively, every op
/// elsewhere that depends on one). The thread runtime -- which has no
/// simulated clock -- crashes the device just before it would execute its
/// `after_ops`-th schedule op (after_ops < 0 disables the runtime trigger).
struct DeviceCrash {
  int device = 0;
  double at_ms = std::numeric_limits<double>::infinity();
  int after_ops = -1;
};

/// Thread-runtime transient: the `op_index`-th schedule op on `device`
/// fails `failures` times before succeeding. The StageWorker retries it in
/// place with exponential backoff; more failures than its retry budget
/// escalate to a StageFailure (see runtime/stage_failure.h).
struct TransientOpFault {
  int device = 0;
  int op_index = 0;
  int failures = 1;
};

/// Thread-runtime hard hang: `device` stops dead just before executing its
/// `op_index`-th schedule op. It raises no exception and makes no further
/// progress -- the model of a wedged collective or a livelocked kernel.
/// Without an external watchdog cancelling the iteration, its peers block
/// until their receive deadlines expire; with one, the hang parks on the
/// iteration's CancelToken and converts to a Timeout StageFailure the
/// moment the watchdog fires.
struct HangFault {
  int device = 0;
  int op_index = 0;
};

/// Thread-runtime straggler: each of the `op_count` schedule ops starting
/// at `first_op` on `device` pays an extra `delay_ms` of real wall-clock
/// time before executing. Unlike Straggler (simulated-time multiplier),
/// SlowOps burns actual time on the worker thread, so the supervisor's
/// watchdog can detect it as a silent-progress gap.
struct SlowOps {
  int device = 0;
  int first_op = 0;
  int op_count = 1;
  double delay_ms = 0;  ///< >= 0 per affected op
};

/// Outcome of routing one transfer through the fault plan.
struct TransferOutcome {
  double lag_ms = 0;  ///< effective transfer latency including retries
  int retries = 0;    ///< failed attempts paid before success
};

struct FaultPlan {
  std::vector<Straggler> stragglers;
  std::vector<LinkSpike> spikes;
  std::vector<LinkOutage> outages;
  std::vector<DeviceCrash> crashes;
  std::vector<TransientOpFault> transients;
  std::vector<HangFault> hangs;
  std::vector<SlowOps> slow_ops;

  bool empty() const {
    return stragglers.empty() && spikes.empty() && outages.empty() &&
           crashes.empty() && transients.empty() && hangs.empty() &&
           slow_ops.empty();
  }

  /// Product of the slowdowns of every straggler window `device` sits in at
  /// `at_ms`. Exactly 1.0 when none match (so fault-free timing is
  /// bit-identical to the no-plan path).
  double slowdown(int device, double at_ms) const;

  /// Effective latency of a transfer crossing `boundary` departing at
  /// `depart_ms` with fault-free latency `base_lag_ms`: outage retries
  /// first, then any additive spike at the (possibly delayed) departure.
  TransferOutcome transfer(int boundary, double depart_ms,
                           double base_lag_ms) const;

  /// Earliest simulator crash for `device`, or nullptr.
  const DeviceCrash* crash_for(int device) const;

  /// Runtime crash trigger: does `device` die just before its
  /// `op_index`-th op?
  bool crashes_before_op(int device, int op_index) const;

  /// Runtime transient for (device, op_index), or nullptr.
  const TransientOpFault* transient_for(int device, int op_index) const;

  /// Runtime hang trigger: does `device` wedge just before its
  /// `op_index`-th op?
  bool hangs_before_op(int device, int op_index) const;

  /// Total extra wall-clock delay `device` pays before its `op_index`-th
  /// op (sum over matching SlowOps windows). 0 when none match.
  double slow_delay_ms(int device, int op_index) const;

  /// Throws std::invalid_argument on out-of-range devices/boundaries or
  /// non-positive slowdowns/backoffs (boundaries = global stages - 1).
  void validate(int devices, int boundaries) const;
};

/// Knobs of the seeded scenario generator: per-device straggler and
/// per-boundary spike/outage probabilities with window sizes expressed as
/// fractions of the iteration horizon.
struct FaultDistribution {
  double straggler_prob = 0.2;    ///< per device
  double slowdown_min = 1.25;
  double slowdown_max = 2.0;
  double window_frac = 0.5;       ///< straggler window length / horizon
  double spike_prob = 0.1;        ///< per boundary
  double spike_min_ms = 0.5;
  double spike_max_ms = 2.0;
  double outage_prob = 0.0;       ///< per boundary
  double outage_frac = 0.1;       ///< outage window length / horizon
  double retry_backoff_ms = 0.5;
};

/// Draws one deterministic FaultPlan for a pipeline of `devices` devices
/// (`boundaries` = global stages - 1) whose fault-free iteration takes
/// `horizon_ms`. The same (dist, shape, seed) always yields the same plan;
/// Monte-Carlo trials use consecutive seeds.
FaultPlan sample_fault_plan(const FaultDistribution& dist, int devices,
                            int boundaries, double horizon_ms,
                            std::uint64_t seed);

}  // namespace autopipe::faults
