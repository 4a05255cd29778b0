#include "core/planner.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/balanced_dp.h"
#include "core/schedule.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace autopipe::core {

const SimResult& SimMemo::get(const Partition& p) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::promise<SimResult> promise;
  std::shared_future<SimResult> future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(p.counts);
    if (it == entries_.end()) {
      owner = true;
      future = promise.get_future().share();
      entries_.emplace(p.counts, future);
    } else {
      future = it->second;
    }
  }
  if (owner) {
    // Single-flight: exactly one caller simulates; concurrent lookups of
    // the same scheme block on the shared_future instead of re-simulating.
    misses_.fetch_add(1, std::memory_order_relaxed);
    try {
      promise.set_value(
          simulate_pipeline(stage_costs(config_, p), micro_batches_, comm_));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  // The map keeps a shared_future alive for the memo's lifetime, so the
  // reference into its shared state stays valid.
  return future.get();
}

namespace {

/// Does `partition` violate Eq. (1) at any s > master? Returns the smallest
/// violating s, or -1 when the constraint holds everywhere.
int first_violation(const std::vector<StageCost>& costs, int master) {
  const int n = static_cast<int>(costs.size());
  double acc = 0.0;
  for (int s = master + 1; s < n; ++s) {
    acc += costs[s].load();
    if (acc > (s - master) * costs[master].bwd_ms + 1e-9) return s;
  }
  return -1;
}

/// Moves one boundary block from stage `from` to adjacent stage `to`;
/// contiguity makes which block moves (first or last) implicit in the
/// direction.
Partition move_block(const Partition& p, int from, int to) {
  Partition out = p;
  --out.counts[from];
  ++out.counts[to];
  return out;
}

/// Step 3 of the heuristic: the master-stage candidate set of `scheme` with
/// master `i` -- each boundary move with and without re-balancing the
/// affected stage prefix via Algorithm 1. Pure; order is fixed so the
/// downstream reduction is deterministic.
std::vector<Partition> master_shift_candidates(
    const Partition& scheme, int i, const std::vector<double>& loads) {
  std::vector<Partition> candidates;
  if (scheme.counts[i] < 2) return candidates;
  // Moves a boundary block of stage i to stage `to`, then re-balances the
  // `head` stages before the move's far side over their (enlarged) prefix.
  const auto add = [&](int to, int head) {
    Partition moved = move_block(scheme, i, to);
    candidates.push_back(moved);
    const int prefix = moved.stage_begin(head);
    if (prefix < head) return;
    const std::vector<int> counts =
        balanced_counts(std::span(loads).subspan(0, prefix), head);
    std::copy(counts.begin(), counts.end(), moved.counts.begin());
    candidates.push_back(std::move(moved));
  };
  add(i - 1, i);  // (a) first block of stage i -> stage i-1
  if (i + 1 < scheme.num_stages()) add(i + 1, i + 1);  // (b) last -> i+1
  return candidates;
}

/// A scheme retained for robustness re-ranking, with the keys of the
/// search's total order so the top-K set is insertion-order independent.
struct RankedScheme {
  Partition partition;
  SimResult sim;
  std::uint64_t hash = 0;
  bool ok = false;  ///< satisfied PlannerOptions::feasible
};

}  // namespace

Partition cooldown_adjust(const ModelConfig& config, const Partition& start,
                          int master, SimMemo& memo) {
  Partition current = start;
  const int n = current.num_stages();
  // Each move shifts one block toward the tail; bounded by blocks * stages.
  int budget = config.num_blocks() * n + 1;
  while (budget-- > 0) {
    const auto costs = stage_costs(config, current);
    const int s = first_violation(costs, master);
    if (s < 0 || s >= n - 1) break;     // satisfied, or nothing behind s
    if (current.counts[s] <= 1) break;  // cannot empty a stage
    const Partition next = move_block(current, s, s + 1);
    const int next_master = memo.get(next).master_stage;
    current = next;
    if (next_master != master) break;  // paper: stop when master moves
  }
  return current;
}

Partition cooldown_adjust(const ModelConfig& config, const Partition& start,
                          int master, int micro_batches) {
  SimMemo memo(config, micro_batches);
  return cooldown_adjust(config, start, master, memo);
}

PlannerResult plan(const ModelConfig& config, int stages, int micro_batches,
                   const PlannerOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();

  // The comm model every simulation and re-ranking schedule prices hops
  // with; the unset default reproduces the scalar config.comm_ms exactly.
  const CommModel comm = options.comm.value_or(CommModel(config.comm_ms));
  SimMemo local_memo(config, micro_batches, comm);
  SimMemo& memo = options.memo != nullptr ? *options.memo : local_memo;
  // A shared memo carries counts from earlier plan() calls; report only
  // this call's delta.
  const int memo_lookups0 = memo.lookups();
  const int memo_misses0 = memo.misses();
  const std::vector<double> loads = block_loads(config);

  PlannerResult result;
  int evals = 0;
  bool has_best = false;
  bool best_feasible = false;
  std::uint64_t best_hash = 0;
  // Top-K schemes for robustness re-ranking, kept sorted by the same total
  // order the best-scheme selection uses (feasible first, then time, then
  // hash); with a total order, the retained K-set is independent of the
  // order schemes were considered in.
  const int keep =
      options.robustness.enabled() ? std::max(1, options.robustness.candidates)
                                   : 0;
  std::vector<RankedScheme> ranked;
  const auto ranked_before = [&](const RankedScheme& a, const RankedScheme& b) {
    if (a.ok != b.ok) return a.ok;
    return a.sim.iteration_ms < b.sim.iteration_ms ||
           (a.sim.iteration_ms == b.sim.iteration_ms && a.hash < b.hash);
  };
  auto consider = [&](const Partition& p, const SimResult& sim) {
    const std::uint64_t h = scheme_hash(p);
    const bool ok = !options.feasible || options.feasible(p);
    if (keep > 0) {
      // A scheme can be considered twice (as a wave member and earlier as a
      // candidate); the hash dedupes it.
      if (std::none_of(ranked.begin(), ranked.end(),
                       [&](const RankedScheme& r) { return r.hash == h; })) {
        RankedScheme r{p, sim, h, ok};
        const auto pos =
            std::upper_bound(ranked.begin(), ranked.end(), r, ranked_before);
        ranked.insert(pos, std::move(r));
        if (static_cast<int>(ranked.size()) > keep) ranked.pop_back();
      }
    }
    // Feasible schemes strictly dominate infeasible ones; among equals the
    // (iteration time, scheme hash) order decides. With no feasible scheme
    // the winner is thus the time-optimal one, the documented fallback.
    if (!has_best || (ok && !best_feasible) ||
        (ok == best_feasible &&
         (sim.iteration_ms < result.sim.iteration_ms ||
          (sim.iteration_ms == result.sim.iteration_ms && h < best_hash)))) {
      has_best = true;
      best_feasible = ok;
      result.partition = p;
      result.sim = sim;
      best_hash = h;
    }
  };

  std::set<std::vector<int>> visited;
  std::vector<Partition> frontier;
  // The cold seed always leads the first wave; a usable warm seed joins it
  // (PlannerOptions::warm_start).
  frontier.push_back(balanced_partition(config, stages));
  if (options.warm_start && options.warm_start->num_stages() == stages) {
    const Partition& seed = *options.warm_start;
    const bool usable =
        seed.total_blocks() == config.num_blocks() &&
        std::all_of(seed.counts.begin(), seed.counts.end(),
                    [](int c) { return c >= 1; }) &&
        !(seed == frontier.front());
    if (usable) {
      frontier.push_back(seed);
      result.warm_started = true;
    }
  }

  // Frontier waves, walked in order. The whole wave is marked visited
  // before any of its schemes runs, so candidates are filtered against the
  // wave-start set; each scheme's results are considered in the order
  // scheme, cooldown-adjusted scheme, candidates, each checked against
  // `max_evaluations` before it is simulated.
  while (!frontier.empty() && evals < options.max_evaluations) {
    std::vector<Partition> wave;
    for (Partition& p : frontier) {
      if (visited.insert(p.counts).second) wave.push_back(std::move(p));
    }
    frontier.clear();

    for (const Partition& scheme : wave) {
      if (evals >= options.max_evaluations) break;
      ++evals;
      const SimResult* sim = &memo.get(scheme);
      consider(scheme, *sim);
      // Step 2: remove Cooldown bubbles by enforcing Eq. (1).
      const Partition base =
          cooldown_adjust(config, scheme, sim->master_stage, memo);
      if (!(base == scheme)) {
        if (evals >= options.max_evaluations) break;
        ++evals;
        sim = &memo.get(base);
        consider(base, *sim);
      }
      // Step 3 terminates at the first stage.
      const int i = sim->master_stage;
      if (i == 0) continue;
      for (Partition& c : master_shift_candidates(base, i, loads)) {
        if (visited.count(c.counts) > 0) continue;
        if (evals >= options.max_evaluations) break;
        ++evals;
        const SimResult& c_sim = memo.get(c);
        consider(c, c_sim);
        if (c_sim.master_stage <= i) frontier.push_back(std::move(c));
      }
    }
  }

  result.feasible = best_feasible || !options.feasible;

  // Robustness re-ranking: Monte-Carlo each retained scheme's 1F1B schedule
  // under the identical seeded fault scenarios and let the ranking quantile
  // pick the winner. Candidates run sequentially in their fixed order; the
  // trial fan-out inside evaluate_robustness uses `threads` workers.
  if (keep > 0 && !ranked.empty()) {
    std::unique_ptr<util::ThreadPool> pool;
    if (const int threads = util::resolve_threads(options.threads);
        threads > 1) {
      pool = std::make_unique<util::ThreadPool>(threads);
    }
    // Never let an infeasible scheme beat a feasible one on robustness.
    if (ranked.front().ok) {
      std::erase_if(ranked, [](const RankedScheme& r) { return !r.ok; });
    }
    int best_idx = -1;
    faults::RobustnessReport best_report;
    for (std::size_t k = 0; k < ranked.size(); ++k) {
      const auto costs = stage_costs(config, ranked[k].partition);
      const Schedule schedule = build_1f1b(costs, micro_batches, comm);
      const faults::RobustnessReport report = faults::evaluate_robustness(
          schedule, sim::ExecOptions{}, options.robustness, pool.get());
      if (best_idx < 0 || report.score_ms < best_report.score_ms ||
          (report.score_ms == best_report.score_ms &&
           ranked[k].hash < ranked[static_cast<std::size_t>(best_idx)].hash)) {
        best_idx = static_cast<int>(k);
        best_report = report;
      }
    }
    RankedScheme& winner = ranked[static_cast<std::size_t>(best_idx)];
    result.partition = std::move(winner.partition);
    result.sim = winner.sim;
    result.robustness = best_report;
    result.robust_ranked = true;
    AP_LOG(info) << "planner: robust re-rank over " << ranked.size()
                 << " scheme(s), winner p" << options.robustness.quantile
                 << " = " << best_report.score_ms << " ms (nominal "
                 << best_report.nominal_ms << " ms)";
  }

  result.evaluations = evals;
  result.unique_simulations = memo.misses() - memo_misses0;
  result.cache_hits =
      (memo.lookups() - memo_lookups0) - result.unique_simulations;
  result.search_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  AP_LOG(info) << "planner: " << evals << " evaluations ("
               << result.unique_simulations << " simulated, "
               << result.cache_hits << " memo hits), best "
               << result.sim.iteration_ms << " ms, master "
               << result.sim.master_stage;
  return result;
}

}  // namespace autopipe::core
