#include <gtest/gtest.h>

#include "core/autopipe.h"
#include "core/balanced_dp.h"
#include "core/planner.h"
#include "costmodel/analytic.h"
#include "costmodel/topology.h"
#include "planners/megatron.h"

namespace autopipe::core {
namespace {

class PlannerTest : public testing::Test {
 protected:
  ModelConfig cfg_ =
      costmodel::build_model_config(costmodel::gpt2_345m(), {4, 0, true});
};

TEST_F(PlannerTest, BeatsUniformMegatronPartition) {
  const Partition uniform = planners::megatron_partition(cfg_, 4);
  const double uniform_ms = simulate_pipeline(cfg_, uniform, 8).iteration_ms;
  const PlannerResult r = plan(cfg_, 4, 8);
  EXPECT_LT(r.sim.iteration_ms, uniform_ms);
  // Paper headline: the Planner alone gains 1.05x-1.25x over Megatron-LM.
  EXPECT_GT(uniform_ms / r.sim.iteration_ms, 1.04);
}

TEST_F(PlannerTest, NeverWorseThanAlgorithmOneSeed) {
  for (int depth : {2, 4, 8}) {
    const Partition seed = balanced_partition(cfg_, depth);
    const double seed_ms =
        simulate_pipeline(cfg_, seed, 2 * depth).iteration_ms;
    const PlannerResult r = plan(cfg_, depth, 2 * depth);
    EXPECT_LE(r.sim.iteration_ms, seed_ms + 1e-9) << "depth " << depth;
  }
}

TEST_F(PlannerTest, OutputIsAValidPartition) {
  for (int depth : {2, 3, 4, 6, 8, 12}) {
    const PlannerResult r = plan(cfg_, depth, 2 * depth);
    EXPECT_NO_THROW(validate(cfg_, r.partition)) << "depth " << depth;
    EXPECT_EQ(r.partition.num_stages(), depth);
    EXPECT_GT(r.evaluations, 0);
  }
}

TEST_F(PlannerTest, Deterministic) {
  const PlannerResult a = plan(cfg_, 4, 8);
  const PlannerResult b = plan(cfg_, 4, 8);
  EXPECT_EQ(a.partition.counts, b.partition.counts);
  EXPECT_DOUBLE_EQ(a.sim.iteration_ms, b.sim.iteration_ms);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST_F(PlannerTest, EvaluationCapRespected) {
  PlannerOptions opts;
  opts.max_evaluations = 3;
  const PlannerResult r = plan(cfg_, 4, 8, opts);
  EXPECT_LE(r.evaluations, 3);
  EXPECT_NO_THROW(validate(cfg_, r.partition));
}

TEST_F(PlannerTest, SearchIsFast) {
  // Fig. 12: the master stage prunes the search to a handful of
  // simulations; at 12 stages this one stops on its Algorithm 1 seed.
  // Counted exactly, not timed (values recorded from the wave search).
  const PlannerResult r = plan(cfg_, 12, 24);
  EXPECT_EQ(r.evaluations, 1);
  EXPECT_EQ(r.unique_simulations, 1);
}

TEST_F(PlannerTest, CooldownAdjustEnforcesEqOne) {
  // Build a scheme that clearly violates Eq. (1): everything after the
  // master crammed into the next stage.
  const int depth = 4;
  Partition skew = balanced_partition(cfg_, depth);
  // Move blocks from the last stage into stage 2 to create a violation.
  while (skew.counts[3] > 2) {
    --skew.counts[3];
    ++skew.counts[2];
  }
  const SimResult before = simulate_pipeline(cfg_, skew, 8);
  const int master = before.master_stage;
  const Partition adjusted = cooldown_adjust(cfg_, skew, master, 8);
  // Eq. (1) holds afterwards (or the master moved, which also terminates).
  const auto costs = stage_costs(cfg_, adjusted);
  const SimResult after = simulate_pipeline(cfg_, adjusted, 8);
  if (after.master_stage == master) {
    double acc = 0;
    for (int s = master + 1; s < depth; ++s) {
      acc += costs[s].load();
      if (s < depth - 1 && adjusted.counts[s] > 1) {
        EXPECT_LE(acc, (s - master) * costs[master].bwd_ms + 1e-6)
            << "Eq. (1) violated at s=" << s;
      }
    }
  }
  EXPECT_NO_THROW(validate(cfg_, adjusted));
}

TEST_F(PlannerTest, LastStageGetsFewerLayersThanMiddle) {
  // The vocabulary head makes the last stage expensive; a balanced plan
  // compensates with fewer transformer layers there (Table II pattern).
  const PlannerResult r = plan(cfg_, 4, 8);
  const auto units = stage_layer_units(cfg_, r.partition);
  EXPECT_LT(units[3], units[1]);
  EXPECT_LT(units[3], units[2]);
}

TEST_F(PlannerTest, ImprovesBalanceOverUniform) {
  const Partition uniform = planners::megatron_partition(cfg_, 4);
  const PlannerResult r = plan(cfg_, 4, 8);
  EXPECT_LT(balance_stddev(cfg_, r.partition), balance_stddev(cfg_, uniform));
}

TEST_F(PlannerTest, FeasibilityPredicateFiltersTheBest) {
  // Forbid the partition the unconstrained planner would pick; the planner
  // must return a different, allowed scheme (and mark it feasible).
  const PlannerResult unconstrained = plan(cfg_, 4, 8);
  PlannerOptions opts;
  opts.feasible = [&](const Partition& p) {
    return !(p == unconstrained.partition);
  };
  const PlannerResult constrained = plan(cfg_, 4, 8, opts);
  EXPECT_TRUE(constrained.feasible);
  EXPECT_NE(constrained.partition.counts, unconstrained.partition.counts);
  EXPECT_GE(constrained.sim.iteration_ms, unconstrained.sim.iteration_ms);
}

TEST_F(PlannerTest, InfeasibleEverywhereFallsBackWithFlag) {
  PlannerOptions opts;
  opts.feasible = [](const Partition&) { return false; };
  const PlannerResult r = plan(cfg_, 4, 8, opts);
  EXPECT_FALSE(r.feasible);
  EXPECT_NO_THROW(validate(cfg_, r.partition));  // still a usable fallback
}

TEST_F(PlannerTest, MemoryAwareSearchMatchesMemoryModel) {
  // partition_fits_memory must accept every zoo plan auto_plan emits.
  for (const char* name : {"gpt2-345m", "gpt2-1.3b"}) {
    const auto cfg = costmodel::build_model_config(
        costmodel::model_by_name(name), {16, 0, true});
    const auto r = core::auto_plan(cfg, {4, 512, 0, true});
    const long m = 512 / (16 * r.plan.data_parallel);
    EXPECT_TRUE(core::partition_fits_memory(cfg, r.plan.partition,
                                            static_cast<int>(m)))
        << name;
  }
}

// Planner behaves across the whole model zoo and depth sweep.
struct PlanCase {
  const char* model;
  int depth;
};

// gtest_discover_tests names each case after its printed parameter. The
// default byte dump holds the name pointer and padding, so the ctest names
// would change with every build; print the fields instead.
void PrintTo(const PlanCase& c, std::ostream* os) {
  *os << c.model << " depth " << c.depth;
}

class PlannerZooTest : public testing::TestWithParam<PlanCase> {};

TEST_P(PlannerZooTest, ProducesBalancedValidSchemes) {
  const auto [name, depth] = GetParam();
  const auto cfg = costmodel::build_model_config(
      costmodel::model_by_name(name), {4, 0, true});
  const PlannerResult r = plan(cfg, depth, 2 * depth);
  EXPECT_NO_THROW(validate(cfg, r.partition));
  const auto loads = stage_loads(cfg, r.partition);
  const double worst = *std::max_element(loads.begin(), loads.end());
  double total = 0;
  for (double l : loads) total += l;
  // Bottleneck within 40% of the perfect-balance bound.
  EXPECT_LT(worst, total / depth * 1.4) << name << " depth " << depth;
}

INSTANTIATE_TEST_SUITE_P(
    ZooSweep, PlannerZooTest,
    testing::Values(PlanCase{"gpt2-345m", 2}, PlanCase{"gpt2-345m", 8},
                    PlanCase{"gpt2-762m", 4}, PlanCase{"gpt2-762m", 9},
                    PlanCase{"gpt2-1.3b", 4}, PlanCase{"gpt2-1.3b", 8},
                    PlanCase{"bert-large", 4}, PlanCase{"bert-large", 12}));

TEST(PlannerComm, UniformCommModelIsBitIdenticalToScalar) {
  // Contract (a): an unset PlannerOptions::comm and an explicit uniform
  // model at config.comm_ms choose the same scheme with the same simulated
  // times, bit-for-bit.
  const auto cfg =
      costmodel::build_model_config(costmodel::gpt2_345m(), {4, 0, true});
  PlannerOptions uniform;
  uniform.comm = costmodel::CommModel(cfg.comm_ms);
  const PlannerResult a = plan(cfg, 4, 8);
  const PlannerResult b = plan(cfg, 4, 8, uniform);
  EXPECT_EQ(a.partition.counts, b.partition.counts);
  EXPECT_EQ(a.sim.iteration_ms, b.sim.iteration_ms);
  EXPECT_EQ(a.sim.startup_ms, b.sim.startup_ms);
}

TEST(PlannerComm, TopologyPricingChangesAndImprovesThePlan) {
  // Acceptance criterion: pricing inter-node boundaries with the paper
  // cluster's links (PCIe inside a node, 100G InfiniBand across) makes the
  // Planner choose a different scheme than uniform pricing -- and the
  // hetero-aware scheme simulates strictly better under the prices that
  // the cluster actually charges. Found by scanning the model zoo:
  // gpt2-1.3b at depth 5 diverges with a ~6.6 ms/iteration margin.
  const auto cfg = costmodel::build_model_config(costmodel::gpt2_1_3b(),
                                                 {8, 0, true});
  const auto comm = costmodel::CommModel::from_topology(
      costmodel::paper_cluster(), 0, costmodel::activation_bytes(cfg));
  const int m = 12;
  const PlannerResult uniform = plan(cfg, 5, m);
  PlannerOptions hetero;
  hetero.comm = comm;
  const PlannerResult aware = plan(cfg, 5, m, hetero);
  EXPECT_NE(uniform.partition.counts, aware.partition.counts);
  const double uniform_ms =
      simulate_pipeline(stage_costs(cfg, uniform.partition), m, comm)
          .iteration_ms;
  const double aware_ms =
      simulate_pipeline(stage_costs(cfg, aware.partition), m, comm)
          .iteration_ms;
  EXPECT_LT(aware_ms, uniform_ms);
}

}  // namespace
}  // namespace autopipe::core
