// Recovery suite (ctest label `faults`): StageFailure propagation in the
// thread runtime, transient retry, degraded re-planning, and the gradient
// atomicity of run_iteration_with_recovery.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>

#include "core/replan.h"
#include "faults/fault_plan.h"
#include "model/data.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/recovery.h"
#include "runtime/stage_failure.h"

namespace autopipe::runtime {
namespace {

/// Twin tiny models + one mini-batch; the single fixture every test shares.
struct Lab {
  model::TinySpec spec;
  model::TransformerModel ref, piped;
  model::Batch whole;
  std::vector<model::Batch> micro;
  double scale;
  double ref_loss;

  Lab()
      : spec(make_spec()),
        ref(spec),
        piped(spec),
        scale(1.0 / (4 * 6 * spec.seq)) {
    model::SyntheticCorpus corpus(spec.vocab);
    whole = corpus.next_batch(4 * 6, spec.seq);
    micro = model::SyntheticCorpus::split_micro_batches(whole, spec.seq, 4);
    ref.zero_grads();
    ref_loss = ref.reference_step(whole.ids, whole.targets, scale);
    piped.zero_grads();
  }

  static model::TinySpec make_spec() {
    model::TinySpec s;
    s.layers = 3;  // 8 blocks
    s.hidden = 16;
    s.heads = 2;
    s.vocab = 32;
    s.seq = 4;
    return s;
  }

  static costmodel::ModelConfig config() {
    const model::TinySpec t = make_spec();
    costmodel::ModelSpec spec;
    spec.name = "tiny";
    spec.num_layers = t.layers;
    spec.hidden = t.hidden;
    spec.heads = t.heads;
    spec.vocab = t.vocab;
    spec.default_seq = t.seq;
    spec.causal = t.causal;
    return costmodel::build_model_config(spec, {4, 0, true});
  }

  IterationResult run(const std::vector<int>& counts, const RunOptions& run) {
    PipelineRuntime rt(piped, counts);
    const auto schedule = rt.make_schedule(
        costmodel::ScheduleKind::OneFOneB, static_cast<int>(micro.size()));
    return rt.run_iteration(schedule, micro, scale, run);
  }
};

// ------------------------------------------------------ typed propagation

TEST(Recovery, EmptyFaultPlanMatchesLegacyPathBitIdentically) {
  Lab legacy, faulted;
  const auto a = legacy.run({2, 3, 3}, RunOptions{});
  faults::FaultPlan empty;
  RunOptions run;
  run.faults = &empty;
  const auto b = faulted.run({2, 3, 3}, run);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(b.transient_retries, 0);
  EXPECT_DOUBLE_EQ(legacy.piped.max_grad_diff(faulted.piped), 0.0);
}

TEST(Recovery, CrashSurfacesAsTypedFailureWithOriginDevice) {
  Lab lab;
  faults::FaultPlan plan;
  plan.crashes.push_back({2, std::numeric_limits<double>::infinity(), 1});
  RunOptions run;
  run.faults = &plan;
  try {
    lab.run({2, 3, 3}, run);
    FAIL() << "crashed iteration reported success";
  } catch (const StageFailure& e) {
    // The origin failure, not a PeerClosed echo from a neighbour.
    EXPECT_EQ(e.kind(), FailureKind::Crash);
    EXPECT_EQ(e.device(), 2);
  }
}

TEST(Recovery, OriginFailureOutranksTheEchoesItCauses) {
  using K = FailureKind;
  EXPECT_EQ(origin_device({}), -1);
  EXPECT_EQ(origin_device({std::nullopt, std::nullopt}), -1);
  // A crash on device 2 poisons the channels and cancels the token: device
  // 1, blocked in a recv, echoes PeerClosed; device 0, between ops, sees
  // the token first and echoes Timeout. The crash is still the origin.
  EXPECT_EQ(origin_device({K::Timeout, K::PeerClosed, K::Crash}), 2);
  EXPECT_EQ(origin_device({K::Timeout, K::Corruption}), 1);
  EXPECT_EQ(origin_device({K::PeerClosed, K::Transient}), 1);
  // A real hang: the watchdog's Timeout outranks the PeerClosed echoes.
  EXPECT_EQ(origin_device({K::PeerClosed, K::Timeout, std::nullopt}), 1);
  // Equal ranks break toward the lower device id.
  EXPECT_EQ(origin_device({std::nullopt, K::Crash, K::Transient}), 1);
  EXPECT_EQ(origin_device({K::PeerClosed, K::PeerClosed}), 0);
}

TEST(Recovery, TransientWithinBudgetIsAbsorbedInPlace) {
  Lab lab;
  faults::FaultPlan plan;
  plan.transients.push_back({1, 2, 2});  // fails twice, budget is 3
  RunOptions run;
  run.faults = &plan;
  run.backoff_base_ms = 0.01;
  const auto result = lab.run({2, 3, 3}, run);
  EXPECT_EQ(result.transient_retries, 2);
  EXPECT_NEAR(result.loss, lab.ref_loss, 1e-5);
  // The retried op re-runs the identical arithmetic: gradients are not
  // merely close to a fault-free run's, they are the same bits.
  Lab clean;
  clean.run({2, 3, 3}, RunOptions{});
  EXPECT_DOUBLE_EQ(clean.piped.max_grad_diff(lab.piped), 0.0);
}

TEST(Recovery, TransientBeyondBudgetEscalates) {
  Lab lab;
  faults::FaultPlan plan;
  plan.transients.push_back({1, 2, 9});  // budget is 3
  RunOptions run;
  run.faults = &plan;
  try {
    lab.run({2, 3, 3}, run);
    FAIL() << "over-budget transient did not escalate";
  } catch (const StageFailure& e) {
    EXPECT_EQ(e.kind(), FailureKind::Transient);
    EXPECT_EQ(e.device(), 1);
  }
}

// --------------------------------------------------------------- replan

TEST(Replan, DegradedPlanCoversSurvivors) {
  const auto cfg = Lab::config();
  core::AutoPipeOptions original;
  original.num_gpus = 3;
  original.global_batch = 24;
  original.enable_slicer = false;
  const auto replanned = core::replan_on_failure(cfg, original, 1);
  EXPECT_EQ(replanned.failed_device, 1);
  EXPECT_EQ(replanned.surviving_devices, 2);
  EXPECT_LE(replanned.result.plan.num_stages(), 2);
  EXPECT_GE(replanned.replan_ms, 0.0);
  int blocks = 0;
  for (int c : replanned.result.plan.partition.counts) blocks += c;
  EXPECT_EQ(blocks, cfg.num_blocks());
}

TEST(Replan, RejectsBadInputs) {
  const auto cfg = Lab::config();
  core::AutoPipeOptions one_gpu;
  one_gpu.num_gpus = 1;
  EXPECT_THROW(core::replan_on_failure(cfg, one_gpu, 0),
               std::invalid_argument);
  core::AutoPipeOptions three;
  three.num_gpus = 3;
  EXPECT_THROW(core::replan_on_failure(cfg, three, 3), std::invalid_argument);
  EXPECT_THROW(core::replan_on_failure(cfg, three, -1),
               std::invalid_argument);
}

// ------------------------------------------------------ gradient snapshot

TEST(Recovery, SnapshotRestoreRoundTrips) {
  Lab lab;
  lab.piped.zero_grads();
  lab.piped.reference_step(lab.whole.ids, lab.whole.targets, lab.scale);
  const auto snapshot = snapshot_grads(lab.piped);
  lab.piped.zero_grads();
  EXPECT_GT(lab.ref.max_grad_diff(lab.piped), 0.0);
  restore_grads(lab.piped, snapshot);
  EXPECT_DOUBLE_EQ(lab.ref.max_grad_diff(lab.piped), 0.0);

  model::TransformerModel other({});  // 2 layers: different shape
  EXPECT_THROW(restore_grads(other, snapshot), std::invalid_argument);
}

// ------------------------------------------------------------- recovery

TEST(Recovery, CrashReplansOntoSurvivorsWithExactGradients) {
  Lab lab;
  faults::FaultPlan plan;
  plan.crashes.push_back({1, std::numeric_limits<double>::infinity(), 3});
  RecoveryOptions rec;
  rec.run.faults = &plan;
  rec.backoff_base_ms = 0.01;
  rec.plan = {3, 24, 0, false, 1};

  const auto t0 = std::chrono::steady_clock::now();
  const auto report = run_iteration_with_recovery(
      lab.piped, Lab::config(), {2, 3, 3}, lab.micro, lab.scale, rec);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  EXPECT_TRUE(report.recovered);
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.devices_used, 2);
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_FALSE(report.attempts[0].ok);
  EXPECT_EQ(report.attempts[0].kind, FailureKind::Crash);
  EXPECT_EQ(report.attempts[0].failed_device, 1);
  EXPECT_TRUE(report.attempts[1].ok);
  EXPECT_EQ(report.attempts[1].devices, 2);
  EXPECT_GT(report.recovery_ms, 0.0);
  EXPECT_LE(report.recovery_ms, wall_ms + 1.0);
  EXPECT_LT(wall_ms, 5000.0) << "recovery took implausibly long";

  // Degraded operation trades throughput, never correctness: the recovered
  // gradients match the single-process reference...
  EXPECT_NEAR(report.result.loss, lab.ref_loss, 1e-5);
  EXPECT_LT(lab.ref.max_grad_diff(lab.piped), 1e-4);
  // ...and are bit-identical to a fresh fault-free run on the partition the
  // replanner chose (gradient atomicity: attempt 0's partial sums are gone).
  Lab fresh;
  fresh.run(report.final_counts, RunOptions{});
  EXPECT_DOUBLE_EQ(fresh.piped.max_grad_diff(lab.piped), 0.0);
}

TEST(Recovery, EscalatedTransientRetriesOnSameDevices) {
  Lab lab;
  faults::FaultPlan plan;
  plan.transients.push_back({1, 2, 9});  // beyond the in-place budget
  RecoveryOptions rec;
  rec.run.faults = &plan;
  rec.backoff_base_ms = 0.01;
  rec.plan = {3, 24, 0, false, 1};
  const auto report = run_iteration_with_recovery(
      lab.piped, Lab::config(), {2, 3, 3}, lab.micro, lab.scale, rec);
  EXPECT_TRUE(report.recovered);
  EXPECT_FALSE(report.degraded);  // transient: same cluster, fault consumed
  EXPECT_EQ(report.devices_used, 3);
  EXPECT_EQ(report.final_counts, (std::vector<int>{2, 3, 3}));
  EXPECT_NEAR(report.result.loss, lab.ref_loss, 1e-5);
  Lab clean;
  clean.run({2, 3, 3}, RunOptions{});
  EXPECT_DOUBLE_EQ(clean.piped.max_grad_diff(lab.piped), 0.0);
}

TEST(Recovery, ExhaustedAttemptsRethrowWithGradientsRestored) {
  Lab lab;
  faults::FaultPlan plan;
  // Two devices die in sequence; with max_attempts = 2 the second crash
  // exhausts the budget mid-recovery.
  plan.crashes.push_back({1, std::numeric_limits<double>::infinity(), 3});
  plan.crashes.push_back({0, std::numeric_limits<double>::infinity(), 2});
  RecoveryOptions rec;
  rec.run.faults = &plan;
  rec.max_attempts = 2;
  rec.backoff_base_ms = 0.01;
  rec.plan = {3, 24, 0, false, 1};
  EXPECT_THROW(run_iteration_with_recovery(lab.piped, Lab::config(),
                                           {2, 3, 3}, lab.micro, lab.scale,
                                           rec),
               StageFailure);
  // Atomicity on the failure path: the model's gradients are exactly the
  // pre-call state (zeroed), with no partial accumulation left behind.
  model::TransformerModel zeroed(Lab::make_spec());
  zeroed.zero_grads();
  EXPECT_DOUBLE_EQ(zeroed.max_grad_diff(lab.piped), 0.0);
}

TEST(Recovery, CascadingCrashesDegradeStepByStep) {
  Lab lab;
  faults::FaultPlan plan;
  plan.crashes.push_back({1, std::numeric_limits<double>::infinity(), 3});
  plan.crashes.push_back({0, std::numeric_limits<double>::infinity(), 2});
  RecoveryOptions rec;
  rec.run.faults = &plan;
  rec.backoff_base_ms = 0.01;
  rec.plan = {3, 24, 0, false, 1};
  const auto report = run_iteration_with_recovery(
      lab.piped, Lab::config(), {2, 3, 3}, lab.micro, lab.scale, rec);
  // 3 devices -> crash -> 2 devices -> crash (remapped fault) -> 1 device.
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.devices_used, 1);
  EXPECT_EQ(report.attempts.size(), 3u);
  EXPECT_NEAR(report.result.loss, lab.ref_loss, 1e-5);
  EXPECT_LT(lab.ref.max_grad_diff(lab.piped), 1e-4);
}

}  // namespace
}  // namespace autopipe::runtime
