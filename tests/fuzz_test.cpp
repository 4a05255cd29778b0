// Randomized end-to-end property sweeps: synthetic model configs with
// arbitrary block costs are pushed through the Planner, Slicer, schedule
// builders, executor and (for a few shapes) the thread runtime, asserting
// the invariants that must hold for ANY input -- not just the zoo models.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "core/autopipe.h"
#include "core/balanced_dp.h"
#include "core/planner.h"
#include "core/slicer.h"
#include "costmodel/topology.h"
#include "faults/fault_plan.h"
#include "faults/sdc.h"
#include "model/data.h"
#include "model/ops.h"
#include "runtime/optimizer.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/train_session.h"
#include "supervisor/chaos.h"
#include "supervisor/supervisor.h"
#include "service/plan_service.h"
#include "service/protocol.h"
#include "sim/executor.h"
#include "util/rng.h"

namespace autopipe {
namespace {

/// A synthetic "model": random per-block costs with the usual layout
/// (light embedding, alternating attention/FFN, heavy head).
costmodel::ModelConfig random_config(util::Rng& rng, int layers) {
  costmodel::ModelConfig cfg;
  cfg.spec = costmodel::gpt2_345m();
  cfg.spec.num_layers = layers;
  cfg.comm_ms = rng.uniform(0.0, 0.5);
  auto push = [&](costmodel::BlockKind kind, double f_lo, double f_hi,
                  double units) {
    costmodel::Block b;
    b.name = "b" + std::to_string(cfg.blocks.size());
    b.kind = kind;
    b.fwd_ms = rng.uniform(f_lo, f_hi);
    b.bwd_ms = b.fwd_ms * rng.uniform(1.5, 3.5);
    b.param_bytes = rng.uniform(1e6, 1e8);
    b.stash_bytes = rng.uniform(1e5, 1e7);
    b.work_bytes = rng.uniform(1e6, 1e8);
    b.output_bytes = 1e6;
    b.layer_units = units;
    cfg.blocks.push_back(b);
  };
  push(costmodel::BlockKind::Embedding, 0.01, 0.1, 0);
  for (int l = 0; l < layers; ++l) {
    push(costmodel::BlockKind::Attention, 0.5, 3.0, 0.5);
    push(costmodel::BlockKind::FFN, 0.5, 3.0, 0.5);
  }
  push(costmodel::BlockKind::Head, 1.0, 8.0, 0);
  return cfg;
}

/// One PlannerFuzz input: a random config plus a depth and micro-batch
/// count drawn from the same stream.
struct FuzzShape {
  costmodel::ModelConfig cfg;
  int depth = 0;
  int m = 0;
};

FuzzShape fuzz_shape(std::uint64_t seed) {
  util::Rng rng(seed);
  FuzzShape shape;
  const int layers = 3 + static_cast<int>(rng.next_below(12));
  shape.cfg = random_config(rng, layers);
  const int max_depth = std::min(8, shape.cfg.num_blocks());
  shape.depth = 2 + static_cast<int>(rng.next_below(max_depth - 1));
  shape.m = shape.depth + static_cast<int>(rng.next_below(2 * shape.depth));
  return shape;
}

// Exact outputs of core::plan() and of the plan service's offline solver
// on fixed inputs, recorded from the wave-parallel search before its
// descent became one sequential loop. A row holds the winning counts, the
// bits of the simulated iteration, startup and robustness-score times, the
// master stage, the evaluation and memo accounting, and the feasibility
// and warm-start flags. On a mismatch gtest prints the actual rows;
// re-record only with a stated reason.
unsigned long long bits(double x) {
  return std::bit_cast<unsigned long long>(x);
}

std::string golden_row(const std::string& name, const core::PlannerResult& r,
                       bool with_memo = true) {
  std::string row = name + " counts=";
  for (int c : r.partition.counts) row += std::to_string(c) + ",";
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                " iter=%016llx startup=%016llx score=%016llx master=%d "
                "evals=%d feasible=%d warm=%d",
                bits(r.sim.iteration_ms), bits(r.sim.startup_ms),
                bits(r.robustness.score_ms), r.sim.master_stage,
                r.evaluations, r.feasible, r.warm_started);
  row += buf;
  if (with_memo) {
    row += " sims=" + std::to_string(r.unique_simulations) +
           " hits=" + std::to_string(r.cache_hits);
  }
  return row;
}

class PlannerFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerFuzz, FullPipelineInvariantsHold) {
  const auto [cfg, depth, m] = fuzz_shape(GetParam());

  // Planner: valid output, never worse than its Algorithm-1 seed.
  const auto planned = core::plan(cfg, depth, m);
  ASSERT_NO_THROW(core::validate(cfg, planned.partition));
  const auto seed = core::balanced_partition(cfg, depth);
  const double seed_ms = core::simulate_pipeline(cfg, seed, m).iteration_ms;
  EXPECT_LE(planned.sim.iteration_ms, seed_ms + 1e-9);

  // Slicer: bounded answer, halved startup estimate.
  const auto costs = core::stage_costs(cfg, planned.partition);
  const auto slicing = core::solve_slicing(costs, cfg.comm_ms, m);
  EXPECT_GE(slicing.sliced_micro_batches, 1);
  EXPECT_LT(slicing.sliced_micro_batches, depth);
  EXPECT_LE(slicing.sliced_micro_batches, m);
  EXPECT_NEAR(slicing.startup_after_ms, slicing.startup_before_ms / 2, 1e-9);

  // Schedules: structurally valid, executable, acyclic (executor throws on
  // cycles), and the simulator/executor cross-check holds.
  const auto plain = core::build_1f1b(costs, m, cfg.comm_ms);
  const auto sliced = core::build_sliced_1f1b(costs, m, cfg.comm_ms,
                                              slicing.sliced_micro_batches);
  ASSERT_NO_THROW(core::validate(plain));
  ASSERT_NO_THROW(core::validate(sliced));
  const auto exec_plain = sim::execute(plain);
  const auto exec_sliced = sim::execute(sliced);
  EXPECT_LE(exec_plain.iteration_ms, planned.sim.iteration_ms + 1e-6)
      << "executor must not exceed the comm-conservative simulator";
  // Slicing halves startup on the executor too.
  EXPECT_NEAR(exec_sliced.startup_ms, exec_plain.startup_ms / 2,
              exec_plain.startup_ms * 0.05 + 1e-9);
  // And never costs more than one sliced micro-batch of slack.
  const double slack =
      (costs[0].fwd_ms + costs[0].bwd_ms) * slicing.sliced_micro_batches;
  EXPECT_LE(exec_sliced.iteration_ms, exec_plain.iteration_ms + slack);

  // Iteration time lower bound: no device can beat its own busy time.
  for (int s = 0; s < depth; ++s) {
    EXPECT_GE(exec_plain.iteration_ms + 1e-9,
              m * (costs[s].fwd_ms + costs[s].bwd_ms));
  }
}

TEST_P(PlannerFuzz, PlanIsBitIdenticalAcrossThreadCounts) {
  // PlannerOptions::threads sizes the Monte-Carlo re-rank's trial pool (the
  // descent itself is sequential). The trials use common random numbers
  // and reduce in trial order, so the robust winner, its score and the
  // search accounting are bit-identical for threads 1, 2 and 8.
  const auto [cfg, depth, m] = fuzz_shape(GetParam() * 7919 + 13);
  core::PlannerOptions serial;
  serial.robustness.trials = 16;
  serial.robustness.seed = GetParam();
  serial.robustness.candidates = 3;
  const auto base = core::plan(cfg, depth, m, serial);
  ASSERT_TRUE(base.robust_ranked);
  for (int threads : {2, 8}) {
    core::PlannerOptions opts = serial;
    opts.threads = threads;
    EXPECT_EQ(golden_row("", core::plan(cfg, depth, m, opts)),
              golden_row("", base))
        << "threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, PlannerFuzz,
                         testing::Range<std::uint64_t>(1, 21));

FuzzShape zoo_shape(const char* model, int mbs, int depth, int m) {
  return {costmodel::build_model_config(costmodel::model_by_name(model),
                                        {mbs, 0, true}),
          depth, m};
}

TEST(PlannerGolden, SearchesMatchRecordedBits) {
  std::vector<std::string> rows;
  const auto run = [&](const std::string& name, const FuzzShape& s,
                       const core::PlannerOptions& opts = {}) {
    rows.push_back(golden_row(name, core::plan(s.cfg, s.depth, s.m, opts)));
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run("fuzz/" + std::to_string(seed), fuzz_shape(seed));
  }
  // Forbidding the unconstrained winner steers the search elsewhere.
  const FuzzShape s4 = fuzz_shape(4);
  const core::Partition best4 = core::plan(s4.cfg, s4.depth, s4.m).partition;
  core::PlannerOptions forbid;
  forbid.feasible = [&](const core::Partition& p) { return !(p == best4); };
  run("feasible", s4, forbid);
  // Nothing feasible: the time-optimal scheme comes back, flagged.
  forbid.feasible = [](const core::Partition&) { return false; };
  run("infeasible", s4, forbid);
  // Warm start from the plan of the same config before two blocks drifted.
  for (std::uint64_t seed : {5, 15}) {
    FuzzShape s = fuzz_shape(seed);
    core::PlannerOptions warm;
    warm.warm_start = core::plan(s.cfg, s.depth, s.m).partition;
    s.cfg.blocks[1].fwd_ms *= 1.3;
    s.cfg.blocks[s.cfg.blocks.size() / 2].bwd_ms *= 0.8;
    run("warm/" + std::to_string(seed), s, warm);
  }
  // Topology pricing with the paper cluster's links.
  const FuzzShape big = zoo_shape("gpt2-1.3b", 8, 5, 12);
  core::PlannerOptions priced;
  priced.comm = costmodel::CommModel::from_topology(
      costmodel::paper_cluster(), 0, costmodel::activation_bytes(big.cfg));
  run("comm", big, priced);
  // Monte-Carlo robustness re-rank.
  core::PlannerOptions robust;
  robust.robustness.trials = 32;
  robust.robustness.seed = 5;
  robust.robustness.candidates = 3;
  run("robust/gpt2-345m", zoo_shape("gpt2-345m", 4, 4, 8), robust);
  run("robust/6", fuzz_shape(6), robust);
  // Budget cut: the wave search simulated the rest of the cut wave before
  // discarding it, so its simulation counts bound these from above.
  core::PlannerOptions budget;
  budget.max_evaluations = 3;
  std::vector<int> budget_sims;
  for (std::uint64_t seed : {1, 3, 4, 5, 15, 16}) {
    const FuzzShape s = fuzz_shape(seed);
    const auto r = core::plan(s.cfg, s.depth, s.m, budget);
    rows.push_back(golden_row("budget/" + std::to_string(seed), r, false));
    budget_sims.push_back(r.unique_simulations);
  }
  const std::vector<std::string> recorded = {
      "fuzz/1 counts=6,4, iter=406e48bfdb5fa68e startup=4025ff1930514e02 score=0000000000000000 master=1 evals=4 feasible=1 warm=0 sims=2 hits=2",
      "fuzz/2 counts=5,4,5,4,2,4,4,2, iter=4088df2f9f315707 startup=404b186069f29571 score=0000000000000000 master=5 evals=2 feasible=1 warm=0 sims=2 hits=1",
      "fuzz/3 counts=5,4,4,4,4,3, iter=4083c344d69f78c2 startup=40444feeda202a66 score=0000000000000000 master=4 evals=34 feasible=1 warm=0 sims=22 hits=20",
      "fuzz/4 counts=14,10,6, iter=4072e81fec24cf74 startup=4043dd3b003cf91d score=0000000000000000 master=2 evals=17 feasible=1 warm=0 sims=8 hits=9",
      "fuzz/5 counts=12,6, iter=406131b6e91cc050 startup=4031742c487ab993 score=0000000000000000 master=1 evals=19 feasible=1 warm=0 sims=7 hits=12",
      "fuzz/6 counts=2,3,3,1,1, iter=406151dd73292fc9 startup=402b09a3c11266e6 score=0000000000000000 master=1 evals=14 feasible=1 warm=0 sims=9 hits=6",
      "fuzz/7 counts=3,3,2,3,3,5,1, iter=407788279714b19e startup=40407674e443bb3e score=0000000000000000 master=6 evals=1 feasible=1 warm=0 sims=1 hits=0",
      "fuzz/8 counts=11,11, iter=4079b89ec8db3120 startup=40334e628bfc1bba score=0000000000000000 master=0 evals=1 feasible=1 warm=0 sims=1 hits=0",
      "fuzz/9 counts=11,7,6, iter=4076d8f32f65a9a8 startup=40394f968606bf56 score=0000000000000000 master=1 evals=7 feasible=1 warm=0 sims=4 hits=4",
      "fuzz/10 counts=4,3,2,1, iter=4069c6f4995baa2a startup=402c2e03cfa8e0d7 score=0000000000000000 master=1 evals=6 feasible=1 warm=0 sims=3 hits=3",
      "fuzz/11 counts=9,7,6, iter=4080147cb5d80d37 startup=403d9d285b9c627b score=0000000000000000 master=0 evals=2 feasible=1 warm=0 sims=2 hits=1",
      "fuzz/12 counts=2,1,2,1,1,2,1, iter=4062ee442c8dbb7a startup=4031b15bc2f9e5b6 score=0000000000000000 master=3 evals=2 feasible=1 warm=0 sims=2 hits=1",
      "fuzz/13 counts=4,5,5,4,2, iter=406db820bd4a5523 startup=403bc463e1d813c9 score=0000000000000000 master=4 evals=12 feasible=1 warm=0 sims=6 hits=6",
      "fuzz/14 counts=3,3,3,1, iter=406626df4be6cab0 startup=402e5a659477f379 score=0000000000000000 master=3 evals=1 feasible=1 warm=0 sims=1 hits=0",
      "fuzz/15 counts=6,4,4,4,3,1, iter=4073ffdb49a7777c startup=403faedc2da647c5 score=0000000000000000 master=4 evals=18 feasible=1 warm=0 sims=11 hits=8",
      "fuzz/16 counts=3,2,2,2,2,1, iter=406b2ee7261acd5c startup=4033d17dc9783626 score=0000000000000000 master=4 evals=20 feasible=1 warm=0 sims=13 hits=10",
      "fuzz/17 counts=1,1,2,1,1,3,2,1, iter=4076a8190102d67c startup=4032667e33562587 score=0000000000000000 master=7 evals=1 feasible=1 warm=0 sims=1 hits=0",
      "fuzz/18 counts=8,7,5,6, iter=407144e877550754 startup=40416c45f6aa3cda score=0000000000000000 master=3 evals=13 feasible=1 warm=0 sims=7 hits=6",
      "fuzz/19 counts=8,5,5,6,4, iter=407cac9b058b7959 startup=4044b9d014b4745e score=0000000000000000 master=3 evals=7 feasible=1 warm=0 sims=4 hits=4",
      "fuzz/20 counts=3,3,2, iter=406fdda3ac3db7df startup=4029d2373284a4c3 score=0000000000000000 master=1 evals=6 feasible=1 warm=0 sims=3 hits=3",
      "feasible counts=14,11,5, iter=40733372e1157fe5 startup=40454dbc3a79788e score=0000000000000000 master=1 evals=17 feasible=1 warm=0 sims=8 hits=9",
      "infeasible counts=14,10,6, iter=4072e81fec24cf74 startup=4043dd3b003cf91d score=0000000000000000 master=2 evals=17 feasible=0 warm=0 sims=8 hits=9",
      "warm/5 counts=12,6, iter=406130a4ab619704 startup=403235d604916ae7 score=0000000000000000 master=1 evals=17 feasible=1 warm=1 sims=7 hits=10",
      "warm/15 counts=6,5,3,4,3,1, iter=4074006d50ad846e startup=4040407bc7b1474b score=0000000000000000 master=4 evals=44 feasible=1 warm=1 sims=24 hits=26",
      "comm counts=11,10,11,10,8, iter=40c5a1d389bcfe7f startup=40853b2cbd502ff1 score=0000000000000000 master=2 evals=6 feasible=1 warm=0 sims=4 hits=3",
      "robust/gpt2-345m counts=14,14,13,9, iter=4096594cc953a8f6 startup=4058553754dbaa3d score=409bd3cef50187cb master=1 evals=2 feasible=1 warm=0 sims=2 hits=1",
      "robust/6 counts=2,2,3,2,1, iter=4061562c9556f1f9 startup=402b09a3c11266e6 score=40647d1a59b96b95 master=3 evals=14 feasible=1 warm=0 sims=9 hits=6",
      "budget/1 counts=6,4, iter=406e48bfdb5fa68e startup=4025ff1930514e02 score=0000000000000000 master=1 evals=3 feasible=1 warm=0",
      "budget/3 counts=5,4,4,4,4,3, iter=4083c344d69f78c2 startup=40444feeda202a66 score=0000000000000000 master=4 evals=3 feasible=1 warm=0",
      "budget/4 counts=13,11,6, iter=4073458446d59c04 startup=4043dd3b003cf91c score=0000000000000000 master=2 evals=3 feasible=1 warm=0",
      "budget/5 counts=10,8, iter=4061ea85272e6f64 startup=402df21856e0658c score=0000000000000000 master=1 evals=3 feasible=1 warm=0",
      "budget/15 counts=6,4,4,4,3,1, iter=4073ffdb49a7777c startup=403faedc2da647c5 score=0000000000000000 master=4 evals=3 feasible=1 warm=0",
      "budget/16 counts=3,2,2,2,2,1, iter=406b2ee7261acd5c startup=4033d17dc9783626 score=0000000000000000 master=4 evals=3 feasible=1 warm=0",
  };
  EXPECT_EQ(rows, recorded);
  const std::vector<int> wave_sims = {2, 5, 3, 2, 4, 5};
  for (std::size_t i = 0; i < wave_sims.size(); ++i) {
    EXPECT_LE(budget_sims.at(i), wave_sims[i]) << "budget case " << i;
  }
}

TEST(PlannerGolden, OfflineResponsesMatchRecordedBytes) {
  // plan-cold-style requests: each zoo model twice over a 16-GPU depth
  // sweep, cold, with two seeded drifted blocks.
  const char* const models[] = {"gpt2-345m", "gpt2-762m", "gpt2-1.3b",
                                "bert-large"};
  util::Rng rng(17);
  std::vector<std::string> rows;
  for (int k = 0; k < 8; ++k) {
    const int a = static_cast<int>(rng.next_below(25));
    const int b = 25 + static_cast<int>(rng.next_below(25));
    double f[4];
    for (double& x : f) x = rng.uniform(0.95, 1.05);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "plan id=g%d model=%s gpus=16 gbs=128 stages=0 warm=off "
                  "perturb=%d:%.4f:%.4f,%d:%.4f:%.4f",
                  k, models[k / 2], a, f[0], f[1], b, f[2], f[3]);
    const service::ParsedLine parsed = service::parse_line(line);
    ASSERT_TRUE(parsed.error.empty()) << parsed.error;
    rows.push_back(service::offline_response(parsed.request, {}));
  }
  const std::vector<std::string> recorded = {
      "ok id=g0 model=gpt2-345m mbs=4 seq=0 recompute=1 gpus=16 gbs=128 stages=0 slicer=1 source=analytic perturb=14:1.0439000000000001:1.0467,47:1.0165999999999999:1.0441 warm=- stages=1 dp=16 counts=50 sliced=0 iter_ms=1161.0584873042158",
      "ok id=g1 model=gpt2-345m mbs=4 seq=0 recompute=1 gpus=16 gbs=128 stages=0 slicer=1 source=analytic perturb=18:1.0041:1.0162,38:0.95040000000000002:1.0451999999999999 warm=- stages=1 dp=16 counts=50 sliced=0 iter_ms=1160.1575959916506",
      "ok id=g2 model=gpt2-762m mbs=4 seq=0 recompute=1 gpus=16 gbs=128 stages=0 slicer=1 source=analytic perturb=20:0.98340000000000005:0.96060000000000001,38:0.95899999999999996:0.96919999999999995 warm=- stages=1 dp=16 counts=74 sliced=0 iter_ms=2444.4985679838869",
      "ok id=g3 model=gpt2-762m mbs=4 seq=0 recompute=1 gpus=16 gbs=128 stages=0 slicer=1 source=analytic perturb=19:1.0412999999999999:0.95379999999999998,39:0.995:1.0061 warm=- stages=1 dp=16 counts=74 sliced=0 iter_ms=2445.9925622914711",
      "ok id=g4 model=gpt2-1.3b mbs=4 seq=0 recompute=1 gpus=16 gbs=128 stages=0 slicer=1 source=analytic perturb=13:0.9587:1.0414000000000001,48:1.0096000000000001:1.0289999999999999 warm=- stages=2 dp=8 counts=27,23 sliced=1 iter_ms=4444.3050103159403",
      "ok id=g5 model=gpt2-1.3b mbs=4 seq=0 recompute=1 gpus=16 gbs=128 stages=0 slicer=1 source=analytic perturb=5:0.9546:0.9869,30:1.0157:1.0190999999999999 warm=- stages=2 dp=8 counts=27,23 sliced=1 iter_ms=4440.414979694885",
      "ok id=g6 model=bert-large mbs=4 seq=0 recompute=1 gpus=16 gbs=128 stages=0 slicer=1 source=analytic perturb=15:0.98819999999999997:1.0463,49:0.97550000000000003:0.96060000000000001 warm=- stages=1 dp=16 counts=50 sliced=0 iter_ms=572.07312050909377",
      "ok id=g7 model=bert-large mbs=4 seq=0 recompute=1 gpus=16 gbs=128 stages=0 slicer=1 source=analytic perturb=24:1.0368999999999999:1.032,42:0.96940000000000004:0.95420000000000005 warm=- stages=1 dp=16 counts=50 sliced=0 iter_ms=572.8145263200314",
  };
  EXPECT_EQ(rows, recorded);
}

class RuntimeFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RuntimeFuzz, RandomPartitionGradEquivalence) {
  util::Rng rng(GetParam());
  model::TinySpec spec;
  spec.layers = 2 + static_cast<int>(rng.next_below(3));  // 6..10 blocks
  spec.hidden = 8 * (1 + static_cast<int>(rng.next_below(2)));
  spec.heads = 2;
  spec.vocab = 16 + static_cast<int>(rng.next_below(32));
  spec.seq = 4;
  spec.seed = GetParam();
  model::TransformerModel ref(spec), piped(spec);

  // Random contiguous partition into 2..4 stages.
  const int blocks = ref.num_blocks();
  const int stages = 2 + static_cast<int>(rng.next_below(3));
  std::vector<int> counts(stages, 1);
  for (int extra = blocks - stages; extra > 0; --extra) {
    ++counts[rng.next_below(stages)];
  }

  const int B = 2 + 2 * static_cast<int>(rng.next_below(2));
  const int m = stages + static_cast<int>(rng.next_below(4));
  const int sliced = static_cast<int>(rng.next_below(stages));

  model::SyntheticCorpus corpus(spec.vocab, GetParam());
  const auto batch = corpus.next_batch(B * m, spec.seq);
  const auto micro =
      model::SyntheticCorpus::split_micro_batches(batch, spec.seq, B);
  const double scale = 1.0 / (B * m * spec.seq);

  ref.zero_grads();
  const double ref_loss = ref.reference_step(batch.ids, batch.targets, scale);

  runtime::PipelineRuntime rt(piped, counts);
  piped.zero_grads();
  const auto schedule = rt.make_schedule(
      sliced > 0 ? costmodel::ScheduleKind::AutoPipeSliced
                 : costmodel::ScheduleKind::OneFOneB,
      m, sliced);
  const auto result = rt.run_iteration(schedule, micro, scale);
  EXPECT_NEAR(result.loss, ref_loss, 1e-5);
  EXPECT_LT(ref.max_grad_diff(piped), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, RuntimeFuzz,
                         testing::Range<std::uint64_t>(100, 108));

class ZeroBubbleFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ZeroBubbleFuzz, SplitTrainingBitIdenticalToFusedOnRandomShapes) {
  // Property behind the zero-bubble feature: for ANY model shape and
  // contiguous partition, an iteration under the split-backward schedule
  // produces bitwise the same loss and parameter gradients as fused 1F1B.
  // The W deferral reorders ops across micro-batches, never the additions
  // into any single parameter's grad tensor.
  util::Rng rng(GetParam());
  model::TinySpec spec;
  spec.layers = 2 + static_cast<int>(rng.next_below(3));  // 6..10 blocks
  spec.hidden = 8 * (1 + static_cast<int>(rng.next_below(2)));
  spec.heads = 2;
  spec.vocab = 16 + static_cast<int>(rng.next_below(32));
  spec.seq = 4;
  spec.seed = GetParam();
  model::TransformerModel fused(spec), split(spec);

  const int blocks = fused.num_blocks();
  const int stages = 2 + static_cast<int>(rng.next_below(3));
  std::vector<int> counts(stages, 1);
  for (int extra = blocks - stages; extra > 0; --extra) {
    ++counts[rng.next_below(stages)];
  }
  const int B = 2 + 2 * static_cast<int>(rng.next_below(2));
  const int m = stages + static_cast<int>(rng.next_below(4));

  model::SyntheticCorpus corpus(spec.vocab, GetParam());
  const auto batch = corpus.next_batch(B * m, spec.seq);
  const auto micro =
      model::SyntheticCorpus::split_micro_batches(batch, spec.seq, B);
  const double scale = 1.0 / (B * m * spec.seq);

  runtime::PipelineRuntime rt_fused(fused, counts), rt_split(split, counts);
  fused.zero_grads();
  split.zero_grads();
  const auto fused_result = rt_fused.run_iteration(
      rt_fused.make_schedule(costmodel::ScheduleKind::OneFOneB, m), micro,
      scale);
  const auto split_result = rt_split.run_iteration(
      rt_split.make_schedule(costmodel::ScheduleKind::ZeroBubble, m), micro,
      scale);
  EXPECT_EQ(fused_result.loss, split_result.loss);
  EXPECT_EQ(fused.max_grad_diff(split), 0.0);
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, ZeroBubbleFuzz,
                         testing::Range<std::uint64_t>(300, 310));

TEST(FaultFuzz, EmptyPlanIsBitIdenticalForEveryScheduleKind) {
  // The fault hooks must be invisible when no fault matches: for random
  // schedules of every kind, execution with a default FaultPlan{} (and with
  // a null plan) produces the same bits.
  util::Rng rng(31);
  for (int trial = 0; trial < 24; ++trial) {
    const int stages = 2 + static_cast<int>(rng.next_below(5));
    std::vector<core::StageCost> costs(static_cast<std::size_t>(stages));
    for (auto& c : costs) {
      c.fwd_ms = rng.uniform(0.5, 3.0);
      c.bwd_ms = c.fwd_ms * rng.uniform(1.5, 3.0);
    }
    const double comm = rng.uniform(0.0, 0.5);
    const int m = stages + static_cast<int>(rng.next_below(6));
    core::Schedule schedule;
    switch (trial % 5) {
      case 0:
        schedule = core::build_1f1b(costs, m, comm);
        break;
      case 1:
        schedule = core::build_gpipe(costs, m, comm);
        break;
      case 2:
        schedule = core::build_sliced_1f1b(
            costs, m, comm, 1 + static_cast<int>(rng.next_below(stages)));
        break;
      case 4:
        for (auto& c : costs) {
          c.bwd_input_ms = c.bwd_ms * rng.uniform(0.5, 0.8);
          c.bwd_weight_ms = c.bwd_ms - c.bwd_input_ms;
        }
        schedule = core::make_zero_bubble(costs, m, comm);
        break;
      default: {
        // Interleaved: every device hosts 2 chunks, m a multiple of devices.
        std::vector<std::vector<core::StageCost>> chunks(
            static_cast<std::size_t>(stages));
        for (auto& dev : chunks) {
          dev.resize(2);
          for (auto& c : dev) {
            c.fwd_ms = rng.uniform(0.5, 2.0);
            c.bwd_ms = c.fwd_ms * 2.0;
          }
        }
        schedule = core::build_interleaved(chunks, stages * 2, comm);
        break;
      }
    }
    sim::ExecOptions base;
    base.per_op_overhead_ms = rng.uniform(0.0, 0.1);
    base.jitter_frac = rng.uniform(0.0, 0.05);
    base.seed = trial + 1;
    const auto none = sim::execute(schedule, base);

    const faults::FaultPlan empty;
    sim::ExecOptions faulted = base;
    faulted.faults = &empty;
    const auto with_empty = sim::execute(schedule, faulted);

    EXPECT_EQ(none.iteration_ms, with_empty.iteration_ms);
    EXPECT_EQ(none.startup_ms, with_empty.startup_ms);
    EXPECT_EQ(none.device_busy_ms, with_empty.device_busy_ms);
    ASSERT_EQ(none.trace.size(), with_empty.trace.size());
    for (std::size_t i = 0; i < none.trace.size(); ++i) {
      EXPECT_EQ(none.trace[i].start_ms, with_empty.trace[i].start_ms);
      EXPECT_EQ(none.trace[i].end_ms, with_empty.trace[i].end_ms);
    }
    EXPECT_FALSE(with_empty.failure.crashed);
    EXPECT_EQ(with_empty.link_retries, 0);
  }
}

TEST(ScheduleEvalFuzz, AnalyticEvaluatorMatchesExecutorForEveryKind) {
  // The longest-path evaluator and the discrete-event executor time the
  // one graph sim::build_schedule_graph builds, so with zero overhead, zero
  // jitter and no faults the executor must add nothing to its timing: the
  // two agree bit-for-bit -- for every ScheduleKind, on random partitions
  // and random per-boundary comm cost vectors.
  util::Rng rng(57);
  for (int trial = 0; trial < 48; ++trial) {
    const int stages = 2 + static_cast<int>(rng.next_below(6));
    std::vector<core::StageCost> costs(static_cast<std::size_t>(stages));
    for (auto& c : costs) {
      c.fwd_ms = rng.uniform(0.5, 3.0);
      c.bwd_ms = c.fwd_ms * rng.uniform(1.5, 3.0);
    }
    const int m = stages + static_cast<int>(rng.next_below(8));
    const int chunks = trial % 5 == 3 ? 2 : 1;
    std::vector<double> boundary(
        static_cast<std::size_t>(chunks * stages - 1));
    for (auto& b : boundary) b = rng.uniform(0.0, 1.0);
    const auto comm = costmodel::CommModel::from_costs(boundary);
    core::Schedule schedule;
    switch (trial % 5) {
      case 0:
        schedule = core::build_1f1b(costs, m, comm);
        break;
      case 1:
        schedule = core::build_gpipe(costs, m, comm);
        break;
      case 2:
        schedule = core::build_sliced_1f1b(
            costs, m, comm, 1 + static_cast<int>(rng.next_below(stages)));
        break;
      case 4:
        for (auto& c : costs) {
          c.bwd_input_ms = c.bwd_ms * rng.uniform(0.5, 0.8);
          c.bwd_weight_ms = c.bwd_ms - c.bwd_input_ms;
        }
        schedule = core::make_zero_bubble(costs, m, comm);
        break;
      default: {
        std::vector<std::vector<core::StageCost>> chunk_costs(
            static_cast<std::size_t>(stages));
        for (auto& dev : chunk_costs) {
          dev.resize(2);
          for (auto& c : dev) {
            c.fwd_ms = rng.uniform(0.5, 2.0);
            c.bwd_ms = c.fwd_ms * rng.uniform(1.5, 3.0);
          }
        }
        schedule = core::build_interleaved(chunk_costs, stages * 2, comm);
        break;
      }
    }
    const auto eval = core::evaluate_schedule(schedule);
    const auto exec = sim::execute(schedule);
    EXPECT_EQ(eval.iteration_ms, exec.iteration_ms) << "trial " << trial;
    EXPECT_EQ(eval.startup_ms, exec.startup_ms) << "trial " << trial;
    // Per-op agreement: both sides sorted by (start, device, end).
    ASSERT_EQ(eval.ops.size(), exec.trace.size()) << "trial " << trial;
    std::vector<std::tuple<double, int, double>> a, b;
    for (const auto& op : eval.ops) {
      a.emplace_back(op.start_ms, op.device, op.end_ms);
    }
    for (const auto& op : exec.trace) {
      b.emplace_back(op.start_ms, op.device, op.end_ms);
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "trial " << trial;
    // The critical path is real: non-empty, ends at the makespan, and walks
    // forward in time.
    ASSERT_FALSE(eval.critical_path.empty());
    EXPECT_EQ(eval.ops[eval.critical_path.back()].end_ms, eval.iteration_ms);
    for (std::size_t i = 1; i < eval.critical_path.size(); ++i) {
      EXPECT_LE(eval.ops[eval.critical_path[i - 1]].end_ms,
                eval.ops[eval.critical_path[i]].start_ms + 1e-12);
    }
  }
}

class RecoveryFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoveryFuzz, CrashRecoveryReproducesNoFaultGradients) {
  // Property: wherever a device crash lands in the first step -- before
  // any checkpoint exists -- the Degrade-mode supervisor finishes on the
  // two survivors, bit-identical to a fault-free session on the partition
  // it chose, and matching the single-process reference.
  util::Rng rng(GetParam());
  model::TinySpec spec;
  spec.layers = 3;  // 8 blocks
  spec.hidden = 16;
  spec.heads = 2;
  spec.vocab = 32;
  spec.seq = 4;
  spec.seed = GetParam();

  costmodel::ModelSpec ms;
  ms.name = "tiny";
  ms.num_layers = spec.layers;
  ms.hidden = spec.hidden;
  ms.heads = spec.heads;
  ms.vocab = spec.vocab;
  ms.default_seq = spec.seq;
  ms.causal = spec.causal;

  const int B = 4, m = 6;
  runtime::TrainSessionOptions base;
  base.spec = spec;
  base.counts = {2, 3, 3};
  base.micro_batch = B;
  base.num_micro_batches = m;
  base.data_seed = GetParam();

  supervisor::ChaosScript script;
  supervisor::ChaosEvent crash;
  crash.step = 0;
  crash.kind = supervisor::ChaosKind::Crash;
  crash.device = static_cast<int>(rng.next_below(3));
  crash.op_index = static_cast<int>(rng.next_below(12));  // anywhere in 1F1B
  script.events.push_back(crash);

  supervisor::SupervisorOptions o;
  o.session = base;  // checkpointing off
  o.config = costmodel::build_model_config(ms, {4, 0, true});
  o.target_steps = 1;
  o.mode = supervisor::RecoveryMode::Degrade;
  o.chaos = &script;
  supervisor::Supervisor sup(o);
  const supervisor::SupervisorReport report = sup.run();
  ASSERT_TRUE(report.completed) << report.abort_reason;
  ASSERT_EQ(report.final_counts.size(), 2u);
  EXPECT_EQ(report.final_counts[0] + report.final_counts[1], 8);

  model::TransformerModel ref(spec);
  model::SyntheticCorpus corpus(spec.vocab, GetParam());
  const auto batch = corpus.next_batch(B * m, spec.seq);
  ref.zero_grads();
  const double ref_loss = ref.reference_step(batch.ids, batch.targets,
                                             1.0 / (B * m * spec.seq));
  EXPECT_NEAR(report.losses[0], ref_loss, 1e-4);

  base.counts = report.final_counts;
  runtime::TrainSession clean(base);
  clean.step();
  EXPECT_TRUE(sup.session().capture() == clean.capture());
  EXPECT_EQ(report.losses, clean.losses());
}

INSTANTIATE_TEST_SUITE_P(RandomCrashPoints, RecoveryFuzz,
                         testing::Range<std::uint64_t>(200, 212));

TEST(EvaluatePlanFuzz, NeverCrashesAndStaysFinite) {
  util::Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const auto cfg = random_config(rng, 4 + static_cast<int>(rng.next_below(8)));
    core::ParallelPlan plan;
    const int d = 1 + static_cast<int>(rng.next_below(4));
    plan.partition.counts.assign(d, 1);
    for (int extra = cfg.num_blocks() - d; extra > 0; --extra) {
      ++plan.partition.counts[rng.next_below(d)];
    }
    plan.uniform_dp = rng.next_below(2) == 0;
    if (plan.uniform_dp) {
      plan.data_parallel = 1 + static_cast<int>(rng.next_below(8));
    } else {
      plan.shard_micro_batches = rng.next_below(2) == 0;
      for (int s = 0; s < d; ++s) {
        plan.stage_devices.push_back(1 + static_cast<int>(rng.next_below(6)));
      }
    }
    const long gbs = 16L << rng.next_below(6);
    const auto ev = core::evaluate_plan(cfg, plan, gbs);
    if (!ev.oom && !ev.runtime_error) {
      EXPECT_GT(ev.iteration_ms, 0.0);
      EXPECT_TRUE(std::isfinite(ev.iteration_ms));
      EXPECT_EQ(ev.stage_loads_ms.size(), static_cast<std::size_t>(d));
    }
  }
}

class ServiceFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ServiceFuzz, WarmReplanNeverWorseThanCold) {
  // The warm-start acceptance property: seeding the search with a prior
  // plan (here: the optimum of a drifted sibling config) can never produce
  // a worse plan than a cold search, because the seed joins the first wave
  // *behind* the balanced seed -- the considered set is a strict superset
  // of the cold search's. "Never worse" is in the planner's total order:
  // (iteration_ms, scheme_hash).
  util::Rng rng(GetParam() * 104729 + 71);
  const int layers = 3 + static_cast<int>(rng.next_below(12));
  auto cfg = random_config(rng, layers);
  const int max_depth = std::min(8, cfg.num_blocks());
  const int depth = 2 + static_cast<int>(rng.next_below(max_depth - 1));
  const int m = depth + static_cast<int>(rng.next_below(2 * depth));

  // The "previous" config: same shape, timings drifted by up to +-20% on a
  // random subset of blocks. Its optimal plan is the warm seed.
  auto prev = cfg;
  for (auto& b : prev.blocks) {
    if (rng.next_below(3) == 0) {
      const double factor = rng.uniform(0.8, 1.2);
      b.fwd_ms *= factor;
      b.bwd_ms *= factor;
    }
  }
  const auto prior = core::plan(prev, depth, m);

  const auto cold = core::plan(cfg, depth, m);
  core::PlannerOptions warm_opts;
  warm_opts.warm_start = prior.partition;
  const auto warm = core::plan(cfg, depth, m, warm_opts);

  ASSERT_EQ(warm.feasible, cold.feasible);
  if (!cold.feasible) return;
  EXPECT_LE(warm.sim.iteration_ms, cold.sim.iteration_ms);
  if (warm.sim.iteration_ms == cold.sim.iteration_ms) {
    EXPECT_LE(core::scheme_hash(warm.partition),
              core::scheme_hash(cold.partition));
  }
}

TEST_P(ServiceFuzz, ServedMatchesOfflineReplayForSeededRequests) {
  // Daemon determinism over a seeded request mix: one long-lived service
  // accumulates memo/history state across random zoo requests, yet every
  // canonical response byte-matches a fresh offline replay of the same
  // request plus the echoed warm hint.
  util::Rng rng(GetParam() * 31337 + 5);
  service::ServiceOptions opts;
  opts.workers = 2;
  opts.max_queue = 256;
  service::PlanService service(opts);

  const char* models[] = {"gpt2-345m", "gpt2-762m", "bert-large"};
  const char* warms[] = {"off", "auto"};
  for (int i = 0; i < 10; ++i) {
    const int gpus = 1 << (1 + rng.next_below(3));  // 2, 4 or 8
    std::string line = "plan id=f" + std::to_string(i) +
                       " model=" + models[rng.next_below(3)] +
                       " gpus=" + std::to_string(gpus) +
                       " gbs=" + std::to_string(32L << rng.next_below(3)) +
                       " stages=" + std::to_string(rng.next_below(2) ? gpus : 0) +
                       " warm=" + warms[rng.next_below(2)];
    if (rng.next_below(2) == 0) {
      const int block = static_cast<int>(rng.next_below(10));
      const double f = rng.uniform(0.9, 1.1);
      char buf[64];
      std::snprintf(buf, sizeof(buf), " perturb=%d:%.4f:%.4f", block, f, f);
      line += buf;
    }
    const std::string served = service.handle_line(line);
    ASSERT_EQ(served.rfind("ok ", 0), 0u) << served << "\nrequest: " << line;
    const service::ParsedLine parsed = service::parse_line(line);
    ASSERT_TRUE(parsed.error.empty()) << line;
    EXPECT_EQ(service::canonical_part(served),
              service::offline_response(parsed.request,
                                        service::parse_warm_hint(served)))
        << "request: " << line;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomReplans, ServiceFuzz,
                         testing::Range<std::uint64_t>(1, 16));

TEST(HotpathFuzz, NaiveAndFastOpsTrainBitIdenticallyForEveryScheduleKind) {
  // End-to-end bit-identity of the fast kernels: K pipelined training
  // steps (forward, backward, Adam) with the naive ref:: ops and with the
  // blocked/ILP fast ops must produce bitwise-equal losses every step and
  // bitwise-equal gradients after the last step -- for each schedule kind.
  constexpr int kSteps = 3;
  model::TinySpec spec;
  spec.layers = 2;
  spec.hidden = 16;
  spec.heads = 2;
  spec.vocab = 32;
  spec.seq = 4;
  spec.seed = 5;
  const int B = 2;

  const struct {
    costmodel::ScheduleKind kind;
    int chunks;
    int sliced;
  } cases[] = {
      {costmodel::ScheduleKind::OneFOneB, 1, 0},
      {costmodel::ScheduleKind::GPipe, 1, 0},
      {costmodel::ScheduleKind::AutoPipeSliced, 1, 1},
      {costmodel::ScheduleKind::Interleaved, 2, 0},
      {costmodel::ScheduleKind::ZeroBubble, 1, 0},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(costmodel::to_string(c.kind));
    const int devices = 2;
    const int m = 4;
    // Split the blocks over devices*chunks contiguous ranges.
    model::TransformerModel probe(spec);
    const std::vector<int> counts = core::balanced_counts(
        std::vector<double>(probe.num_blocks(), 1.0), devices * c.chunks);

    const auto train = [&](bool fast, model::TransformerModel& net,
                           std::vector<double>* losses) {
      model::set_fast_ops(fast);
      model::SyntheticCorpus corpus(spec.vocab, 99);
      runtime::PipelineRuntime rt(net, counts, c.chunks);
      const auto schedule = rt.make_schedule(c.kind, m, c.sliced);
      runtime::Adam adam(1e-2);
      const double scale = 1.0 / (B * m * spec.seq);
      for (int step = 0; step < kSteps; ++step) {
        const auto batch = corpus.next_batch(B * m, spec.seq);
        const auto micro =
            model::SyntheticCorpus::split_micro_batches(batch, spec.seq, B);
        net.zero_grads();
        const auto r = rt.run_iteration(schedule, micro, scale);
        adam.step(net);
        losses->push_back(r.loss);
      }
    };

    model::TransformerModel naive_net(spec), fast_net(spec);
    std::vector<double> naive_losses, fast_losses;
    train(false, naive_net, &naive_losses);
    train(true, fast_net, &fast_losses);
    model::set_fast_ops(true);

    ASSERT_EQ(naive_losses.size(), fast_losses.size());
    for (std::size_t i = 0; i < naive_losses.size(); ++i) {
      EXPECT_EQ(naive_losses[i], fast_losses[i]) << "step " << i;
    }
    // Last-step gradients are still in the blocks: bitwise equality here
    // means parameters never diverged across all K Adam updates.
    EXPECT_EQ(naive_net.max_grad_diff(fast_net), 0.0);
  }
}

TEST(SupervisorFuzz, RecoveryReproducesUnfaultedTrainingForEveryKind) {
  // Property: for ANY seeded chaos script, a supervised run in Replace
  // mode either completes bit-identical to the unfaulted run of the same
  // step count, or aborts with a typed report -- for each schedule kind
  // the training runtime supports. ("Recovered" must never silently mean
  // "slightly different gradients".)
  model::TinySpec spec;
  spec.layers = 3;
  spec.hidden = 16;
  spec.heads = 2;
  spec.vocab = 32;
  spec.seq = 4;
  costmodel::ModelSpec mspec;
  mspec.name = "tiny";
  mspec.num_layers = spec.layers;
  mspec.hidden = spec.hidden;
  mspec.heads = spec.heads;
  mspec.vocab = spec.vocab;
  mspec.default_seq = spec.seq;
  mspec.causal = spec.causal;
  const costmodel::ModelConfig config =
      costmodel::build_model_config(mspec, {4, 0, true});

  const struct {
    costmodel::ScheduleKind kind;
    int sliced;
  } cases[] = {
      {costmodel::ScheduleKind::OneFOneB, 0},
      {costmodel::ScheduleKind::GPipe, 0},
      {costmodel::ScheduleKind::AutoPipeSliced, 1},
      {costmodel::ScheduleKind::Interleaved, 0},
      {costmodel::ScheduleKind::ZeroBubble, 0},
  };
  constexpr int kSteps = 6;
  for (const auto& c : cases) {
    SCOPED_TRACE(costmodel::to_string(c.kind));

    runtime::TrainSessionOptions base;
    base.spec = spec;
    base.counts = {2, 3, 3};
    base.kind = c.kind;
    base.sliced = c.sliced;
    base.micro_batch = 2;
    base.num_micro_batches = 6;

    runtime::TrainSession ref(base);
    for (int i = 0; i < kSteps; ++i) ref.step();
    const ckpt::TrainState want = ref.capture();

    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      supervisor::ChaosScriptOptions copts;
      copts.steps = kSteps;
      copts.devices = 3;
      copts.ops_per_device = 12;
      copts.incidents = 5;  // cycles through all five failure classes
      copts.straggler_delay_ms = 20;
      const supervisor::ChaosScript script =
          supervisor::ChaosScript::sample(copts, seed * 977 + 13);

      ckpt::MemStorage mem;
      supervisor::SupervisorOptions o;
      o.session = base;
      o.session.ckpt_dir = "fuzz/sup";
      o.session.ckpt_interval = 2;
      o.session.storage = &mem;
      o.config = config;
      o.target_steps = kSteps;
      o.watchdog.grace_ms = 400;
      o.restart_budget = 16;
      o.chaos = &script;
      supervisor::Supervisor sup(o);
      const supervisor::SupervisorReport report = sup.run();
      if (!report.completed) {
        // The only acceptable alternative outcome: a typed abort.
        EXPECT_FALSE(report.abort_reason.empty());
        continue;
      }
      const ckpt::TrainState got = sup.session().capture();
      EXPECT_TRUE(got.blocks == want.blocks);
      EXPECT_TRUE(got.data_rng == want.data_rng);
      EXPECT_EQ(got.adam_t, want.adam_t);
      ASSERT_EQ(report.losses.size(), ref.losses().size());
      for (std::size_t i = 0; i < report.losses.size(); ++i) {
        EXPECT_EQ(report.losses[i], ref.losses()[i]) << "step " << i;
      }
    }
  }
}

// ------------------------------------------------------------- SDC guards

class GuardFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(GuardFuzz, GuardsOnIsBitwiseIdenticalToGuardsOffForRandomShapes) {
  // The guard layer's zero-interference contract: every detector only READS
  // tensor bytes, so a fully-armed guard config (handoff CRCs, non-finite
  // scans, weight sentinel, norm window, an idle injector wired in) trains
  // bitwise identically to guards-off -- for ANY shape and partition, not
  // just the hand-picked unit-test config.
  util::Rng rng(GetParam());
  model::TinySpec spec;
  spec.layers = 2 + static_cast<int>(rng.next_below(3));
  spec.hidden = 8 * (1 + static_cast<int>(rng.next_below(2)));
  spec.heads = 2;
  spec.vocab = 16 + static_cast<int>(rng.next_below(32));
  spec.seq = 4;
  spec.seed = GetParam();

  model::TransformerModel probe(spec);
  const int stages = 2 + static_cast<int>(rng.next_below(2));
  std::vector<int> counts(static_cast<std::size_t>(stages), 1);
  for (int b = stages; b < probe.num_blocks(); ++b) {
    ++counts[rng.next_below(static_cast<std::uint64_t>(stages))];
  }

  runtime::TrainSessionOptions base;
  base.spec = spec;
  base.counts = counts;
  base.micro_batch = 2;
  base.num_micro_batches = stages + static_cast<int>(rng.next_below(3));

  runtime::TrainSessionOptions guarded = base;
  guarded.guard.handoff_crc = true;
  guarded.guard.nonfinite_checks = true;
  guarded.guard.weight_interval = 1 + static_cast<int>(rng.next_below(3));
  guarded.guard.norm_window = 2;

  constexpr int kSteps = 3;
  runtime::TrainSession off(base);
  runtime::TrainSession on(guarded);
  faults::SdcInjector idle;  // armed with nothing: pure hot-path presence
  on.run_options().sdc = &idle;
  for (int i = 0; i < kSteps; ++i) {
    off.step();
    on.step();
    EXPECT_EQ(off.losses().back(), on.losses().back()) << "step " << i;
  }
  const ckpt::TrainState a = off.capture();
  const ckpt::TrainState b = on.capture();
  EXPECT_TRUE(a.blocks == b.blocks);
  EXPECT_TRUE(a.data_rng == b.data_rng);
  EXPECT_EQ(a.adam_t, b.adam_t);
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, GuardFuzz,
                         testing::Range<std::uint64_t>(700, 708));

}  // namespace
}  // namespace autopipe
