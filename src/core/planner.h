// AutoPipe Planner (§III-B.2): heuristic partition search.
//
// The planner seeds with Algorithm 1 (balanced_dp.h), then repeatedly
//   (1) simulates the scheme to find the iteration time and master stage i;
//   (2) removes Cooldown-phase bubbles by enforcing Eq. (1),
//         sum_{j=i+1..s} (f_j + b_j) <= (s - i) * b_i   for all s > i,
//       pushing blocks of post-master stages toward the tail one block at a
//       time and stopping early if the master stage moves;
//   (3) if i > 0, shifts the master forward by moving stage i's first block
//       to stage i-1 or its last block to stage i+1, each combined with and
//       without re-running Algorithm 1 on the affected stage prefix; every
//       candidate is simulated, and candidates whose master stays <= i are
//       searched recursively.
// The best scheme ever seen is returned, ordered by (simulated iteration
// time, scheme_hash) -- the hash tie-break plus a fixed candidate ordering
// make the result independent of evaluation order.
//
// The search walks frontier waves in order on the calling thread: a wave
// is the deduplicated set of schemes the previous wave's candidates
// recursed into. The master stage prunes it to a handful of simulations
// (Fig. 12), so the descent is one sequential loop; SimMemo dedupes the
// schemes the move/re-balance candidates regenerate.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/partition.h"
#include "core/simulator.h"
#include "faults/robustness.h"

namespace autopipe::core {

/// Thread-safe, single-flight memoization of simulate_pipeline() results
/// keyed by the partition scheme (hashed with scheme_hash). "Single-flight"
/// means concurrent lookups of the same scheme simulate it exactly once --
/// the first caller computes, the rest wait on its shared_future -- so the
/// miss count equals the number of unique schemes touched. One plan() call
/// looks schemes up from a single thread; the plan service's workers share
/// one memo per (config, micro-batches) across concurrent requests, which
/// is what the locking is for. The move/re-balance candidates of the
/// planner re-generate duplicate schemes constantly, which is what makes
/// the cache pay off.
class SimMemo {
 public:
  SimMemo(const ModelConfig& config, int micro_batches)
      : SimMemo(config, micro_batches, CommModel(config.comm_ms)) {}
  SimMemo(const ModelConfig& config, int micro_batches, CommModel comm)
      : config_(config), micro_batches_(micro_batches),
        comm_(std::move(comm)) {}

  /// Returns the simulation of `p`, computing it at most once per scheme.
  /// The reference stays valid for the lifetime of the memo.
  const SimResult& get(const Partition& p);

  int lookups() const { return lookups_.load(std::memory_order_relaxed); }
  int misses() const { return misses_.load(std::memory_order_relaxed); }
  int hits() const { return lookups() - misses(); }

 private:
  struct CountsHash {
    std::size_t operator()(const std::vector<int>& c) const {
      return static_cast<std::size_t>(scheme_hash(c));
    }
  };

  const ModelConfig& config_;
  int micro_batches_;
  CommModel comm_;
  std::mutex mu_;
  std::unordered_map<std::vector<int>, std::shared_future<SimResult>,
                     CountsHash>
      entries_;
  std::atomic<int> lookups_{0};
  std::atomic<int> misses_{0};
};

struct PlannerOptions {
  /// Safety cap on simulator evaluations; the heuristic needs far fewer
  /// (the search space is bounded by the pipeline depth, §III-B).
  int max_evaluations = 20000;
  /// Optional feasibility predicate (e.g. the per-stage memory model):
  /// infeasible schemes still steer the heuristic but are never returned
  /// as the best. If nothing feasible is found the time-optimal scheme is
  /// returned with `feasible = false` in the result. Invoked only from the
  /// calling thread.
  std::function<bool(const Partition&)> feasible;
  /// Worker threads for the robustness re-rank's Monte-Carlo trials (1 =
  /// inline, the default; 0 = hardware concurrency; N = a pool of N built
  /// only when `robustness` is enabled). The search itself is sequential,
  /// and the result is bit-identical for every value.
  int threads = 1;
  /// Per-boundary communication model used by every simulation and by the
  /// robustness re-ranking schedules. Unset = uniform at config.comm_ms,
  /// which reproduces the historical scalar arithmetic bit-for-bit.
  std::optional<costmodel::CommModel> comm = std::nullopt;
  /// Warm start for incremental re-planning: additionally seed the search
  /// from a previously planned partition (typically the plan served for a
  /// config that differs only in a few block profiles). The prior plan
  /// joins the first wave *behind* the Algorithm 1 balanced seed, so the
  /// warm search considers a strict superset of the cold search's schemes
  /// and, under the planner's total order, is NEVER worse than it
  /// (ServiceFuzz pins this). A converged seed's descent ends within a wave
  /// or two. A seed that does not fit the config/stages is ignored (cold
  /// search, `warm_started = false` in the result).
  std::optional<Partition> warm_start;
  /// Optional externally owned simulation memo shared across plan() calls
  /// (the plan service keys one per (config, micro-batches) so repeated
  /// requests skip simulation entirely). The caller must have constructed
  /// it with the same config, micro-batch count and comm model this call
  /// uses; results are pure, so sharing never changes the returned plan.
  /// PlannerResult's unique_simulations/cache_hits report only this call's
  /// delta.
  SimMemo* memo = nullptr;
  /// Robustness-aware re-ranking (faults/robustness.h): when
  /// `robustness.trials > 0`, the search keeps its `robustness.candidates`
  /// best schemes, Monte-Carlo-simulates each one's 1F1B schedule under
  /// `robustness.dist` straggler/link noise, and returns the scheme with
  /// the lowest `robustness.quantile` iteration time instead of the lowest
  /// nominal time. Every candidate sees the identical fault scenarios
  /// (common random numbers), so the ranking is a paired comparison and
  /// bit-identical for every `threads` value.
  faults::RobustnessOptions robustness;
};

struct PlannerResult {
  Partition partition;
  SimResult sim;              ///< simulation of the winning scheme
  int evaluations = 0;        ///< scheme evaluations spent (incl. memo hits)
  int unique_simulations = 0; ///< simulator runs (memo misses, all callers)
  int cache_hits = 0;         ///< memoized lookups that skipped a simulation
  double search_ms = 0;       ///< wall-clock planning time (Fig. 12)
  bool feasible = true;       ///< satisfied PlannerOptions::feasible
  bool warm_started = false;  ///< search was seeded from warm_start
  /// Monte-Carlo report of the winning scheme when robust ranking ran
  /// (PlannerOptions::robustness); default-initialized otherwise.
  faults::RobustnessReport robustness;
  bool robust_ranked = false;  ///< robustness re-ranking picked the winner
};

/// Plans a `stages`-deep pipeline for `config` processing `micro_batches`
/// micro-batches per iteration.
PlannerResult plan(const ModelConfig& config, int stages, int micro_batches,
                   const PlannerOptions& options = {});

/// One Eq. (1) cooldown adjustment pass used by `plan` (exposed for tests):
/// returns the adjusted partition; stops early when the master stage moves.
Partition cooldown_adjust(const ModelConfig& config, const Partition& start,
                          int master, int micro_batches);

/// Memoized flavour used inside plan(): identical result, but intermediate
/// simulations go through (and populate) `memo`, which fixes the
/// micro-batch count.
Partition cooldown_adjust(const ModelConfig& config, const Partition& start,
                          int master, SimMemo& memo);

}  // namespace autopipe::core
