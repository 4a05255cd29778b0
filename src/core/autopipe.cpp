#include "core/autopipe.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/balanced_dp.h"
#include "core/planner.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/table.h"

namespace autopipe::core {

namespace {

long ceil_div(long a, long b) { return (a + b - 1) / b; }

/// Gradient all-reduce time: every stage's replica group reduces that
/// stage's fp16 gradients concurrently on disjoint devices, so the slowest
/// group binds.
double allreduce_ms(const ModelConfig& config, const Partition& partition,
                    const std::vector<int>& replicas,
                    const costmodel::LinkProfile& link) {
  double worst = 0;
  for (int s = 0; s < partition.num_stages(); ++s) {
    const double grads = stage_param_bytes(config, partition, s);
    worst = std::max(worst,
                     costmodel::ring_allreduce_ms(link, grads, replicas[s]));
  }
  return worst;
}

/// Peak bytes on one replica of stage `s` under 1F1B: parameter state
/// (18 B/param), in-flight activation stashes (scaled by sample sharding
/// and split across whole-micro-batch replicas), and the transient
/// working set.
double detail_stage_bytes(const ModelConfig& config, const Partition& p,
                          int s, int d, int m, double act_shard,
                          int inflight_div) {
  const double params = stage_param_bytes(config, p, s);
  const double stash = stage_stash_bytes(config, p, s) * act_shard;
  const double work = stage_work_bytes(config, p, s) * act_shard;
  const int in_flight = std::min(m, d - s);
  const int per_replica = (in_flight + inflight_div - 1) / inflight_div;
  return params * costmodel::kStateBytesPerParamByte + stash * per_replica +
         work;
}

}  // namespace

bool partition_fits_memory(const ModelConfig& config,
                           const Partition& partition, int micro_batches) {
  const int d = partition.num_stages();
  for (int s = 0; s < d; ++s) {
    if (detail_stage_bytes(config, partition, s, d, micro_batches, 1.0, 1) >
        config.device.mem_capacity_bytes) {
      return false;
    }
  }
  return true;
}

int ParallelPlan::total_devices() const {
  if (uniform_dp) return data_parallel * num_stages();
  return std::accumulate(stage_devices.begin(), stage_devices.end(), 0);
}

PlanEvaluation evaluate_plan(
    const ModelConfig& config, const ParallelPlan& plan, long global_batch,
    const std::optional<costmodel::CommModel>& comm_opt) {
  const CommModel comm = comm_opt.value_or(CommModel(config.comm_ms));
  PlanEvaluation ev;
  const int d = plan.num_stages();
  const int mbs = config.train.micro_batch_size;
  const auto costs = stage_costs(config, plan.partition);

  ev.stage_loads_ms = stage_loads(config, plan.partition);
  ev.balance_stddev_ms = util::stddev(ev.stage_loads_ms);

  std::vector<int> replicas(d, 1);
  if (plan.uniform_dp) {
    replicas.assign(d, plan.data_parallel);
  } else {
    if (static_cast<int>(plan.stage_devices.size()) != d) {
      throw std::invalid_argument("stage_devices size mismatch");
    }
    replicas = plan.stage_devices;
  }

  // A single-stage "pipeline" replicated g ways is plain data parallelism:
  // replicas process whole micro-batches, nothing is sharded.
  const bool pure_dp = d == 1;
  const bool sharded = !plan.uniform_dp && !pure_dp && plan.shard_micro_batches;

  // --- Runtime feasibility: sharding one micro-batch across more replicas
  // than it has samples fails at runtime (Table III, DAPPLE at 16 GPUs).
  if (sharded) {
    for (int s = 0; s < d; ++s) {
      if (replicas[s] > mbs) {
        ev.runtime_error = true;
        ev.note = "stage " + std::to_string(s) + " has " +
                  std::to_string(replicas[s]) +
                  " replicas > micro-batch size " + std::to_string(mbs);
        return ev;
      }
    }
  }

  // --- Micro-batch count and effective per-micro-batch stage costs.
  long m;
  std::vector<StageCost> effective = costs;
  std::vector<double> act_shard(d, 1.0);  // activation-memory scaling
  std::vector<int> per_replica_inflight_div(d, 1);
  double latency_correction_ms = 0;
  if (plan.uniform_dp || pure_dp) {
    const int dp = plan.uniform_dp ? plan.data_parallel : replicas[0];
    m = ceil_div(global_batch, static_cast<long>(mbs) * dp);
    if (m < 1) m = 1;
  } else if (sharded) {
    // DAPPLE: each micro-batch's samples split across the stage's replicas.
    // Sharding is lumpy (4 samples over 3 replicas -> ceil(4/3) = 2 on the
    // slowest) and small per-replica batches run at lower kernel
    // efficiency; kBatchEff models the fixed per-kernel cost in sample
    // units. DAPPLE's own planner assumes smooth 1/g scaling -- the
    // optimism Table III exposes.
    constexpr double kBatchEff = 4.0;
    m = ceil_div(global_batch, mbs);
    for (int s = 0; s < d; ++s) {
      const int samples = (mbs + replicas[s] - 1) / replicas[s];
      const double factor = (samples + kBatchEff) / (mbs + kBatchEff);
      act_shard[s] = static_cast<double>(samples) / mbs;
      effective[s].fwd_ms *= factor;
      effective[s].bwd_ms *= factor;
    }
  } else {
    // Piper: replicas process whole micro-batches round-robin; throughput
    // scales by the wave count ceil(m/g)/m, activations stay full size.
    // Latency does NOT scale -- one micro-batch still takes the full stage
    // time, so the pipeline's fill/drain path pays the unscaled costs;
    // `latency_correction_ms` restores that difference below.
    m = ceil_div(global_batch, mbs);
    for (int s = 0; s < d; ++s) {
      const double factor =
          static_cast<double>(ceil_div(m, replicas[s])) / static_cast<double>(m);
      latency_correction_ms +=
          (costs[s].fwd_ms + costs[s].bwd_ms) * (1.0 - factor);
      effective[s].fwd_ms *= factor;
      effective[s].bwd_ms *= factor;
      per_replica_inflight_div[s] = replicas[s];
    }
  }

  // --- Memory: each replica holds the whole stage's parameters; activation
  // stashes shrink with micro-batch sharding.
  for (int s = 0; s < d; ++s) {
    const double total = detail_stage_bytes(config, plan.partition, s, d,
                                            static_cast<int>(m), act_shard[s],
                                            per_replica_inflight_div[s]);
    if (total > config.device.mem_capacity_bytes) {
      ev.oom = true;
      ev.note = "stage " + std::to_string(s) + " needs " +
                util::Table::fmt(total / (1ull << 30), 1) + " GiB";
      return ev;
    }
  }

  // --- Iteration time: pipeline + gradient all-reduce.
  double pipeline_ms;
  if (d == 1) {
    pipeline_ms = static_cast<double>(m) *
                  (effective[0].fwd_ms + effective[0].bwd_ms);
  } else if (m >= d) {
    pipeline_ms =
        simulate_pipeline(effective, static_cast<int>(m), comm).iteration_ms;
  } else {
    // Degenerate (fewer micro-batches than stages): GPipe-like bound. The
    // uniform closed form is kept as a single multiply for bit-identity
    // with the historical scalar arithmetic.
    double sum = 0, bottleneck = 0;
    for (const auto& c : effective) {
      sum += c.load();
      bottleneck = std::max(bottleneck, c.load());
    }
    double round_trip_comm = 0;
    if (comm.is_uniform()) {
      round_trip_comm = 2 * (d - 1) * comm.uniform_ms();
    } else {
      for (int g = 0; g + 1 < d; ++g) round_trip_comm += 2 * comm.hop_ms(g);
    }
    pipeline_ms = sum + (m - 1) * bottleneck + round_trip_comm;
  }
  ev.iteration_ms = pipeline_ms + latency_correction_ms +
                    allreduce_ms(config, plan.partition, replicas, config.link);
  return ev;
}

AutoPipeResult auto_plan(const ModelConfig& config,
                         const AutoPipeOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  const int G = options.num_gpus;
  if (G < 1) throw std::invalid_argument("need at least one GPU");
  const int mbs = config.train.micro_batch_size;

  const CommModel comm = options.comm.value_or(CommModel(config.comm_ms));
  AutoPipeResult best;
  bool has_best = false;

  std::vector<int> depths;
  if (options.forced_stages > 0) {
    depths.push_back(options.forced_stages);
  } else {
    for (int d = 1; d <= G; ++d) {
      if (G % d == 0 && d <= config.num_blocks()) depths.push_back(d);
    }
  }

  int sweep_evaluations = 0;
  for (int d : depths) {
    ParallelPlan candidate;
    candidate.algorithm = "autopipe";
    candidate.uniform_dp = true;
    candidate.data_parallel = std::max(1, G / d);
    const long m = std::max<long>(
        1, options.global_batch /
               (static_cast<long>(mbs) * candidate.data_parallel));
    if (m < d) continue;  // pipeline deeper than its micro-batch stream

    PlannerResult planned;
    if (d == 1) {
      planned.partition.counts = {config.num_blocks()};
      planned.sim = SimResult{};
    } else {
      // Memory-aware search: when the time-optimal scheme would OOM, the
      // planner keeps looking for the fastest scheme that fits.
      PlannerOptions popts;
      popts.feasible = [&config, m](const Partition& p) {
        return partition_fits_memory(config, p, static_cast<int>(m));
      };
      popts.comm = comm;
      if (static_cast<int>(options.warm_start.size()) == d) {
        popts.warm_start = Partition{options.warm_start};
      }
      if (options.memo_provider) {
        popts.memo = options.memo_provider(config, static_cast<int>(m), comm);
      }
      planned = plan(config, d, static_cast<int>(m), popts);
      sweep_evaluations += planned.evaluations;
      if (!planned.feasible) continue;
    }
    candidate.partition = planned.partition;
    candidate.planning_ms = planned.search_ms;

    const PlanEvaluation ev =
        evaluate_plan(config, candidate, options.global_batch, comm);
    if (ev.oom || ev.runtime_error) continue;
    if (!has_best || ev.iteration_ms < best.evaluation.iteration_ms) {
      has_best = true;
      best.plan = candidate;
      best.evaluation = ev;
      best.sim = planned.sim;
      best.evaluations = planned.evaluations;
      best.unique_simulations = planned.unique_simulations;
      best.cache_hits = planned.cache_hits;
      best.warm_started = planned.warm_started;
    }
  }
  if (!has_best) {
    throw std::runtime_error(
        "no feasible pipeline/data-parallel configuration fits memory");
  }

  // Slicer (Fig. 2: runs on the Planner's output).
  const int d = best.plan.num_stages();
  const long m = std::max<long>(
      1, options.global_batch /
             (static_cast<long>(mbs) * best.plan.data_parallel));
  const auto costs = stage_costs(config, best.plan.partition);
  if (options.enable_slicer && d >= 2) {
    best.slicing = solve_slicing(costs, comm, static_cast<int>(m));
  }
  best.schedule = build_sliced_1f1b(costs, static_cast<int>(m), comm,
                                    best.slicing.sliced_micro_batches);
  // Schedule-kind co-search (opt-in): the zero-bubble split defers weight
  // gradients into bubbles, trading memory (the stashed B/W states) for
  // iteration time. Keep it only when it fits *and* wins.
  if (options.enable_zero_bubble && d >= 2 && m >= d) {
    bool fits = true;
    for (int s = 0; s < d && fits; ++s) {
      const double deferred =
          stage_bw_state_bytes(config, best.plan.partition, s) *
          std::min<long>(m, d - s);
      fits = detail_stage_bytes(config, best.plan.partition, s, d,
                                static_cast<int>(m), 1.0, 1) +
                 deferred <=
             config.device.mem_capacity_bytes;
    }
    if (fits) {
      Schedule zb = make_zero_bubble(costs, static_cast<int>(m), comm);
      if (evaluate_schedule(zb).iteration_ms <
          evaluate_schedule(best.schedule).iteration_ms) {
        best.schedule = std::move(zb);
      }
    }
  }
  best.plan.evaluations = sweep_evaluations;
  best.plan.planning_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  return best;
}

ProfiledPlanResult auto_plan_profiled(const costmodel::ModelSpec& spec,
                                      const costmodel::TrainConfig& train,
                                      const profiler::SessionOptions& source,
                                      const AutoPipeOptions& options) {
  ProfiledPlanResult out;
  out.source = profiler::obtain_profile(spec, train, source);
  out.result = auto_plan(out.source.config, options);
  return out;
}

}  // namespace autopipe::core
