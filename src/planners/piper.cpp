#include "planners/piper.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "costmodel/memory.h"
#include "planners/units.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace autopipe::planners {

namespace {

long ceil_div(long a, long b) { return (a + b - 1) / b; }

struct StageView {
  double load_ms = 0;
  double param_bytes = 0;
  double stash_bytes = 0;
  double work_bytes = 0;
};

std::vector<StageView> views(const core::ModelConfig& config,
                             const std::vector<LayerUnit>& units,
                             const std::vector<int>& unit_counts) {
  std::vector<StageView> out(unit_counts.size());
  std::size_t unit = 0;
  for (std::size_t s = 0; s < unit_counts.size(); ++s) {
    for (int i = 0; i < unit_counts[s]; ++i, ++unit) {
      const LayerUnit& u = units[unit];
      out[s].load_ms += u.load_ms;
      out[s].param_bytes += u.param_bytes;
      for (int b = u.first_block; b < u.first_block + u.num_blocks; ++b) {
        out[s].stash_bytes += config.blocks[b].stash_bytes;
        out[s].work_bytes =
            std::max(out[s].work_bytes, config.blocks[b].work_bytes);
      }
    }
  }
  return out;
}

}  // namespace

core::ParallelPlan piper_plan(const core::ModelConfig& config, int gpus,
                              const PiperOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<LayerUnit> units = layer_units(config);
  const int mbs = config.train.micro_batch_size;
  const long m = std::max<long>(1, options.global_batch / mbs);
  const costmodel::CommModel comm =
      options.comm.value_or(costmodel::CommModel(config.comm_ms));

  core::ParallelPlan best;
  best.algorithm = "piper";
  best.uniform_dp = false;
  best.shard_micro_batches = false;  // replicas process whole micro-batches
  double best_obj = std::numeric_limits<double>::infinity();

  // Materialize the DP search space (depth x device composition) up front
  // so candidates can be scored on a pool; the reduction below walks them
  // in enumeration order, which makes the parallel plan identical to the
  // serial scan (first strict minimum wins).
  struct Candidate {
    int d;
    std::vector<int> replicas;
  };
  std::vector<Candidate> candidates;
  const int max_d =
      std::min({gpus, options.max_stages, static_cast<int>(units.size())});
  for (int d = 1; d <= max_d; ++d) {
    for_each_composition(gpus, d, [&](const std::vector<int>& replicas) {
      candidates.push_back({d, replicas});
    });
  }

  struct Score {
    bool ok = false;
    double obj = 0;
    std::vector<int> unit_counts;
  };
  std::vector<Score> scores(candidates.size());
  auto score_one = [&](int idx) {
    const Candidate& cand = candidates[static_cast<std::size_t>(idx)];
    Score& out = scores[static_cast<std::size_t>(idx)];
    const int d = cand.d;
    const std::vector<int>& replicas = cand.replicas;
    // Replicas of a stage process whole micro-batches round-robin:
    // effective per-micro-batch throughput cost is load * ceil(m/g)/m.
    std::vector<double> weights(d);
    for (int s = 0; s < d; ++s) {
      if (replicas[s] > m) return;  // an idle replica is never optimal
      weights[s] = static_cast<double>(ceil_div(m, replicas[s])) /
                   static_cast<double>(m);
    }
    const std::vector<int> unit_counts =
        weighted_balanced_split(units, weights);
    const std::vector<StageView> stage = views(config, units, unit_counts);

    // Memory constraint with activation accounting. Whole-micro-batch
    // replication keeps full-size activations on every replica, and
    // Piper's model is coarser than exact 1F1B accounting -- it charges
    // every stage the full pipeline depth of in-flight stashes. Both
    // steer it away from shallow pipelines toward the deeper schemes the
    // paper observes (4 stages at 4 GPUs, 5-6 at 8 GPUs).
    for (int s = 0; s < d; ++s) {
      const double total =
          stage[s].param_bytes * costmodel::kStateBytesPerParamByte +
          stage[s].stash_bytes * d + stage[s].work_bytes;
      if (total > config.device.mem_capacity_bytes) return;
    }

    // TPS objective: (m + d - 1) * bottleneck plus the slowest stage
    // all-reduce, per iteration (constant 1/global_batch factor dropped).
    double bottleneck = 0, allreduce = 0;
    for (int s = 0; s < d; ++s) {
      bottleneck = std::max(bottleneck, stage[s].load_ms * weights[s]);
      allreduce = std::max(allreduce,
                           costmodel::ring_allreduce_ms(
                               config.link, stage[s].param_bytes,
                               replicas[s]));
    }
    // Uniform pricing keeps the historical closed form as one multiply for
    // bit-identity; heterogeneous boundaries pay one round trip per hop.
    double round_trip_comm = 0;
    if (comm.is_uniform()) {
      round_trip_comm = 2.0 * (d - 1) * comm.uniform_ms();
    } else {
      for (int g = 0; g + 1 < d; ++g) round_trip_comm += 2.0 * comm.hop_ms(g);
    }
    out.obj = static_cast<double>(m + d - 1) * bottleneck + round_trip_comm +
              allreduce;
    out.unit_counts = unit_counts;
    out.ok = true;
  };

  const int threads = util::resolve_threads(options.threads);
  if (threads > 1 && candidates.size() > 1) {
    util::ThreadPool pool(threads);
    // Chunked fan-out: one task per slab of candidates keeps the
    // per-task overhead negligible against the split DP inside.
    const int n = static_cast<int>(candidates.size());
    const int chunks = std::min(n, threads * 4);
    const int chunk = (n + chunks - 1) / chunks;
    util::parallel_for(&pool, chunks, [&](int c) {
      const int lo = c * chunk;
      const int hi = std::min(n, lo + chunk);
      for (int i = lo; i < hi; ++i) score_one(i);
    });
  } else {
    for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
      score_one(i);
    }
  }

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!scores[i].ok) continue;
    ++best.evaluations;
    if (scores[i].obj < best_obj) {
      best_obj = scores[i].obj;
      best.partition = partition_from_unit_counts(units, scores[i].unit_counts);
      best.stage_devices = candidates[i].replicas;
    }
  }

  best.planning_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  AP_LOG(info) << "piper: " << best.num_stages() << " stages, objective "
               << best_obj << ", " << best.planning_ms << " ms ("
               << candidates.size() << " candidates, " << threads
               << " threads)";
  return best;
}

}  // namespace autopipe::planners
