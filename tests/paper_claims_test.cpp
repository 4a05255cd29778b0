// Golden-shape regression tests pinning the paper claims indexed in
// DESIGN.md §4, so perf refactors of the search can't silently break paper
// fidelity. These pin *shapes* (orderings, directions), not absolute
// numbers -- absolute timings move with hardware, the relationships must
// not.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/autopipe.h"
#include "core/planner.h"
#include "core/schedule.h"
#include "planners/dapple.h"
#include "planners/piper.h"
#include "sim/executor.h"

namespace autopipe {
namespace {

/// The seven hand-picked GPT-2 345M partition schemes of Table II
/// (transformer layers per stage, 0.5 = half a layer).
const std::vector<std::vector<double>> kTableTwoSchemes{
    {5, 7, 6, 6},         {6, 6.5, 6.5, 5},  {6, 7, 6, 5},
    {6.5, 6.5, 6.5, 4.5}, {6.5, 6.5, 6, 5},  {7, 5.5, 6, 5.5},
    {7, 6.5, 5.5, 5}};

TEST(PaperClaims, TableTwoSchemeOrderingUnderSimulator) {
  // Fig. 11's acceptance criterion for planning on simulated times: the
  // simulator must rank the Table II schemes the same way the "actual run"
  // (event executor with launch overheads) does, with a stable gap.
  const auto cfg = costmodel::build_model_config(costmodel::gpt2_345m(),
                                                 {4, 0, true});
  const int m = 8;
  sim::ExecOptions opts;
  opts.per_op_overhead_ms = cfg.device.kernel_launch_ms;  // no jitter

  std::vector<double> simulated, actual;
  for (const auto& layers : kTableTwoSchemes) {
    const auto p = core::partition_from_layers(cfg, layers);
    simulated.push_back(core::simulate_pipeline(cfg, p, m).iteration_ms / m);
    const auto costs = core::stage_costs(cfg, p);
    actual.push_back(
        sim::execute(core::build_1f1b(costs, m, cfg.comm_ms), opts)
            .iteration_ms /
        m);
  }

  // Shape 1: the balanced sub-layer scheme 4 {6.5, 6.5, 6.5, 4.5} is the
  // fastest of the seven and the layer-aligned scheme 1 {5, 7, 6, 6} the
  // slowest, under both timers.
  for (const auto& times : {simulated, actual}) {
    EXPECT_EQ(std::min_element(times.begin(), times.end()) - times.begin(), 3);
    EXPECT_EQ(std::max_element(times.begin(), times.end()) - times.begin(), 0);
  }

  // Shape 2: every meaningfully separated pair (several schemes tie under
  // the simulator) is ordered the same way by simulator and executor.
  for (std::size_t a = 0; a < simulated.size(); ++a) {
    for (std::size_t b = a + 1; b < simulated.size(); ++b) {
      if (std::abs(simulated[a] - simulated[b]) < 1.0) continue;
      EXPECT_EQ(simulated[a] < simulated[b], actual[a] < actual[b])
          << "schemes " << a + 1 << " vs " << b + 1;
    }
  }

  // Shape 3: the gap is stable -- within 1% of the simulated time for
  // every scheme (Fig. 11's "stable bias").
  for (std::size_t i = 0; i < simulated.size(); ++i) {
    EXPECT_LT(std::abs(actual[i] - simulated[i]), simulated[i] * 0.01)
        << "scheme " << i + 1;
  }

  // Shape 4: the Planner's own 4-stage scheme is at least as fast as the
  // best hand scheme of Table II (it searches the same sub-layer space).
  const auto planned = core::plan(cfg, 4, m);
  EXPECT_LE(planned.sim.iteration_ms / m,
            *std::min_element(simulated.begin(), simulated.end()) + 1e-9);
}

TEST(PaperClaims, FigTwelveSearchTimeOrdering) {
  // Fig. 12: AutoPipe searches orders of magnitude faster than Piper, and
  // Piper no slower than DAPPLE (whose placement dimension is the largest
  // space). Asserted on the deterministic search effort -- objective or
  // simulator evaluations -- so the ordering cannot flake under load; the
  // wall-clock times are bench_fig12_search_time's.
  const auto cfg = costmodel::build_model_config(costmodel::gpt2_345m(),
                                                 {8, 0, true});
  const int gpus = 16;
  const int dapple = planners::dapple_plan(cfg, gpus, {8, 4, 512}).evaluations;
  const int piper = planners::piper_plan(cfg, gpus, {8, 512}).evaluations;
  const int autopipe =
      core::auto_plan(cfg, {gpus, 512, 0, true}).plan.evaluations;

  EXPECT_GT(autopipe, 0);
  EXPECT_LT(autopipe * 10, piper)
      << "paper: AutoPipe plans >= 10x faster than Piper";
  EXPECT_LT(piper, dapple)
      << "paper: DAPPLE's placement search is the slowest";
}

TEST(PaperClaims, FigThirteenBalanceImprovementDirection) {
  // Fig. 13: AutoPipe's sub-layer partitioning improves balance (population
  // stddev of per-stage time) several-fold over both layer-granularity
  // baselines, at 4 and 8 GPUs (GPT-2 345M, micro-batch 32).
  const auto cfg = costmodel::build_model_config(costmodel::gpt2_345m(),
                                                 {32, 0, true});
  for (int gpus : {4, 8}) {
    const auto dapple = core::evaluate_plan(
        cfg, planners::dapple_plan(cfg, gpus, {8, 4, 512}), 512);
    const auto piper = core::evaluate_plan(
        cfg, planners::piper_plan(cfg, gpus, {8, 512}), 512);
    const auto ours =
        core::auto_plan(cfg, {gpus, 512, 0, true}).evaluation;
    EXPECT_LT(ours.balance_stddev_ms * 2, dapple.balance_stddev_ms)
        << gpus << " GPUs";
    EXPECT_LT(ours.balance_stddev_ms * 2, piper.balance_stddev_ms)
        << gpus << " GPUs";
  }
}

}  // namespace
}  // namespace autopipe
