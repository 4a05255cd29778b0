// AutoPipe facade: end-to-end planning (Fig. 2) and plan evaluation.
//
// A ParallelPlan captures what every planner in the paper's comparison
// outputs: a pipeline partition plus a data-parallel dimension. AutoPipe and
// Megatron-LM replicate the whole pipeline uniformly (data-parallel size =
// GPUs / pipeline stages, §IV-D); DAPPLE and Piper may replicate individual
// stages unevenly, sharding each micro-batch across a stage's replicas.
//
// evaluate_plan() is the *honest* cost of running a plan -- the paper's
// "apply the algorithms' results to Megatron-LM" step: it simulates the
// pipeline (analytic simulator), adds the gradient all-reduce, and applies
// the memory model, reporting OOM and runtime errors (e.g. a stage with
// more replicas than the micro-batch has samples, the DAPPLE 16-GPU
// failure of Table III).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/partition.h"
#include "core/schedule.h"
#include "core/simulator.h"
#include "core/slicer.h"
#include "costmodel/memory.h"
#include "profiler/session.h"

namespace autopipe::core {

class SimMemo;  // core/planner.h

struct ParallelPlan {
  std::string algorithm;       ///< "autopipe" | "megatron" | "dapple" | "piper"
  Partition partition;         ///< one pipeline replica's partition
  /// True: `data_parallel` whole-pipeline replicas, each processing its own
  /// micro-batches. False: stage_devices[s] replicas of stage s
  /// (DAPPLE/Piper style).
  bool uniform_dp = true;
  int data_parallel = 1;
  std::vector<int> stage_devices;  ///< used when !uniform_dp; size = stages
  /// Per-stage replica semantics (only when !uniform_dp): true, DAPPLE
  /// style -- every micro-batch's samples are sharded across the stage's
  /// replicas (fails when replicas > micro-batch size); false, Piper style
  /// -- replicas process whole micro-batches round-robin (activations are
  /// not sharded, so memory pressure stays per-replica).
  bool shard_micro_batches = true;
  double planning_ms = 0;          ///< search time (Fig. 12)
  /// Search effort of the whole planner call as a deterministic count
  /// (Fig. 12 without the clock): AutoPipe's Planner scheme evaluations
  /// summed over its depth sweep, DAPPLE's and Piper's objective
  /// evaluations.
  int evaluations = 0;

  int num_stages() const { return partition.num_stages(); }
  int total_devices() const;
};

struct PlanEvaluation {
  double iteration_ms = 0;
  bool oom = false;
  bool runtime_error = false;
  std::string note;
  /// Unscaled per-micro-batch stage latencies (f+b): the balance metric of
  /// Fig. 13 is their population stddev.
  std::vector<double> stage_loads_ms;
  double balance_stddev_ms = 0;
};

/// Honest evaluation of `plan` training one global batch of `global_batch`
/// samples (micro-batch size comes from `config`). `comm` prices each stage
/// boundary of the pipeline simulation; unset = uniform at config.comm_ms
/// (bit-identical to the historical scalar arithmetic).
PlanEvaluation evaluate_plan(
    const ModelConfig& config, const ParallelPlan& plan, long global_batch,
    const std::optional<costmodel::CommModel>& comm = std::nullopt);

/// Does every stage of `partition` fit device memory under 1F1B with `m`
/// micro-batches? (18 B/param state + in-flight stashes + working set vs
/// the device capacity; the predicate auto_plan hands the Planner.)
bool partition_fits_memory(const ModelConfig& config,
                           const Partition& partition, int micro_batches);

struct AutoPipeOptions {
  int num_gpus = 4;
  long global_batch = 512;
  /// Force a specific pipeline depth (0 = search divisors of num_gpus,
  /// §IV-D: "its data-parallel size is the number of GPUs over the pipeline
  /// stages").
  int forced_stages = 0;
  bool enable_slicer = true;
  /// Co-search the schedule kind on the chosen partition: also build the
  /// zero-bubble (split-backward) schedule and keep it when it beats the
  /// sliced-1F1B one *and* the deferred weight-gradient states still fit
  /// device memory. Off by default so existing plans are unchanged.
  bool enable_zero_bubble = false;
  /// Per-boundary communication model threaded through the Planner, Slicer,
  /// plan evaluation and the built schedule. Unset = uniform pricing at
  /// config.comm_ms, the historical scalar behaviour.
  std::optional<costmodel::CommModel> comm = std::nullopt;
  /// Warm start for incremental re-planning (PlannerOptions::warm_start):
  /// a previously planned partition's per-stage block counts. It joins the
  /// seed wave of the depth whose stage count matches (behind the balanced
  /// seed, so the result is never worse than a cold search); every other
  /// depth of the sweep searches cold. Empty = always cold.
  std::vector<int> warm_start = {};
  /// Optional cross-call simulation memo source (the plan service's shared
  /// memo pool). Called once per swept depth with the exact (config,
  /// micro-batches, comm model) that depth's planner uses; the returned
  /// memo must have been constructed with those values and stay alive for
  /// the duration of the auto_plan call. Return nullptr for "no sharing".
  std::function<SimMemo*(const ModelConfig& config, int micro_batches,
                         const costmodel::CommModel& comm)>
      memo_provider = {};
};

struct AutoPipeResult {
  ParallelPlan plan;
  SlicerResult slicing;
  /// Sliced 1F1B schedule for one pipeline replica (plain 1F1B when the
  /// slicer is disabled or unhelpful).
  Schedule schedule;
  SimResult sim;               ///< analytic simulation of the chosen partition
  PlanEvaluation evaluation;   ///< honest end-to-end estimate
  /// Planner diagnostics of the *chosen* depth's search (all zero when the
  /// winning depth is 1, which needs no search). unique_simulations and
  /// cache_hits are this call's delta even on a shared memo, so the plan
  /// service can report per-request memo effectiveness.
  int evaluations = 0;
  int unique_simulations = 0;
  int cache_hits = 0;
  bool warm_started = false;   ///< chosen depth's search used warm_start
};

/// The full AutoPipe flow of Fig. 2: pick the pipeline/data-parallel split,
/// run the Planner for the pipeline partition, then the Slicer for the
/// Warmup reschedule.
AutoPipeResult auto_plan(const ModelConfig& config,
                         const AutoPipeOptions& options);

struct ProfiledPlanResult {
  profiler::SessionResult source;  ///< where the config came from
  AutoPipeResult result;
};

/// Measurement-driven flavour of auto_plan -- the complete Fig. 2 loop on
/// real hardware: obtain the ModelConfig from the profile cache (running
/// the BlockProfiler on a miss), then plan from it. The Planner/Slicer path
/// is byte-identical to the analytic flow; only the config source differs.
ProfiledPlanResult auto_plan_profiled(const costmodel::ModelSpec& spec,
                                      const costmodel::TrainConfig& train,
                                      const profiler::SessionOptions& source,
                                      const AutoPipeOptions& options);

}  // namespace autopipe::core
