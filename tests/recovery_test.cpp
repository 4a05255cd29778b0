// Recovery suite (ctest label `faults`): StageFailure propagation in the
// thread runtime, in-place transient retry, the atomicity of a failed
// TrainSession step, degraded re-planning, and device loss recovered
// through the Supervisor's Degrade ladder.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <optional>

#include "ckpt/storage.h"
#include "core/resume.h"
#include "faults/fault_plan.h"
#include "model/data.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/stage_failure.h"
#include "runtime/train_session.h"
#include "supervisor/supervisor.h"

namespace autopipe::runtime {
namespace {

/// Twin tiny models + one mini-batch for the runtime-level tests.
struct Lab {
  model::TinySpec spec;
  model::TransformerModel ref, piped;
  std::vector<model::Batch> micro;
  double scale;
  double ref_loss;

  Lab()
      : spec(make_spec()),
        ref(spec),
        piped(spec),
        scale(1.0 / (4 * 6 * spec.seq)) {
    model::SyntheticCorpus corpus(spec.vocab);
    const model::Batch whole = corpus.next_batch(4 * 6, spec.seq);
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
  core::AutoPipeOptions plan;
  plan.global_batch = 24;
  plan.enable_slicer = false;
  const std::vector<int> counts = core::resume_partition(cfg, plan, 2);
  ASSERT_EQ(counts.size(), 2u);  // pipeline-only: depth = survivors
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0),
            cfg.num_blocks());
  // A well-formed preferred answer (the plan oracle's) wins outright.
  EXPECT_EQ(core::resume_partition(cfg, plan, 2, {3, 5}),
            (std::vector<int>{3, 5}));
}

TEST(Replan, RejectsBadInputs) {
  const auto cfg = Lab::config();
  EXPECT_THROW(core::resume_partition(cfg, {}, 0), std::invalid_argument);
  // Ill-formed preferred answers (wrong depth, wrong block sum, an empty
  // stage) fall back to the Planner instead of reaching the runtime.
  const std::vector<int> planned = core::resume_partition(cfg, {}, 2);
  EXPECT_EQ(core::resume_partition(cfg, {}, 2, {2, 3, 3}), planned);
  EXPECT_EQ(core::resume_partition(cfg, {}, 2, {1, 1}), planned);
  EXPECT_EQ(core::resume_partition(cfg, {}, 2, {0, 8}), planned);
}

// ------------------------------------------------------- atomic sessions

TrainSessionOptions session_options() {
  TrainSessionOptions opts;
  opts.spec = Lab::make_spec();
  opts.counts = {2, 3, 3};
  opts.micro_batch = 2;
  opts.num_micro_batches = 6;
  return opts;
}

TEST(Recovery, FailedSessionStepIsAtomic) {
  TrainSession faulted(session_options()), clean(session_options());
  faulted.step();  // non-trivial Adam moments and step counter
  clean.step();
  const ckpt::TrainState before = faulted.capture();

  faults::FaultPlan plan;
  plan.crashes.push_back({1, std::numeric_limits<double>::infinity(), 3});
  faulted.run_options().faults = &plan;
  ASSERT_THROW(faulted.step(), StageFailure);
  // Blocks, Adam moments, adam_t, data_rng and step: all as before.
  EXPECT_TRUE(faulted.capture() == before);

  // The partial gradients of the failed attempt cannot leak into the next
  // one: a clean retry matches an unfaulted session bit for bit.
  faulted.run_options().faults = nullptr;
  EXPECT_EQ(faulted.step(), clean.step());
  EXPECT_TRUE(faulted.capture() == clean.capture());
}

TEST(Recovery, SnapshotRestoreRoundTrips) {
  // The session's snapshot is capture(); its restore is the resume
  // constructor. A round trip reproduces the state, and the restored
  // session keeps training bit-identically to the original.
  TrainSession original(session_options());
  original.step();
  const ckpt::TrainState snapshot = original.capture();
  TrainSession restored(session_options(), snapshot);
  EXPECT_TRUE(restored.capture() == snapshot);
  EXPECT_EQ(restored.iteration(), original.iteration());
  EXPECT_EQ(restored.step(), original.step());
  EXPECT_TRUE(restored.capture() == original.capture());

  TrainSessionOptions other = session_options();
  other.spec.layers = 2;  // different shape
  other.counts = {2, 2};
  EXPECT_THROW(TrainSession(other, snapshot), ckpt::CkptError);
}

TEST(Recovery, ExhaustedAttemptsRethrowWithGradientsRestored) {
  TrainSession faulted(session_options()), clean(session_options());
  faulted.step();
  clean.step();
  const ckpt::TrainState before = faulted.capture();

  // Three failures against a budget of two: the in-place retries run out
  // and the last attempt's failure is rethrown as a typed Transient.
  faults::FaultPlan plan;
  plan.transients.push_back({1, 2, 3});
  faulted.run_options().faults = &plan;
  faulted.run_options().max_transient_retries = 2;
  faulted.run_options().backoff_base_ms = 0.01;
  try {
    faulted.step();
    FAIL() << "exhausted retry budget did not rethrow";
  } catch (const StageFailure& e) {
    EXPECT_EQ(e.kind(), FailureKind::Transient);
    EXPECT_EQ(e.device(), 1);
  }
  EXPECT_TRUE(faulted.capture() == before);

  // No partial accumulation from the exhausted attempts survives into the
  // next step: its gradients, and so its update, match an unfaulted run.
  faulted.run_options().faults = nullptr;
  EXPECT_EQ(faulted.step(), clean.step());
  EXPECT_DOUBLE_EQ(clean.model().max_grad_diff(faulted.model()), 0.0);
  EXPECT_TRUE(faulted.capture() == clean.capture());
}

// ------------------------------------------------- supervised device loss

supervisor::ChaosEvent crash_event(int step, int device, int op_index) {
  supervisor::ChaosEvent ev;
  ev.step = step;
  ev.kind = supervisor::ChaosKind::Crash;
  ev.device = device;
  ev.op_index = op_index;
  return ev;
}

supervisor::SupervisorOptions degrade_options(
    const supervisor::ChaosScript& script, int steps) {
  supervisor::SupervisorOptions o;
  o.session = session_options();
  o.config = Lab::config();
  o.target_steps = steps;
  o.mode = supervisor::RecoveryMode::Degrade;
  o.chaos = &script;
  return o;
}

TEST(Recovery, CrashReplansOntoSurvivorsWithExactGradients) {
  // Degrade mode, checkpointing off: the crash lands before anything
  // durable exists. The atomic step's live state is resharded onto the two
  // survivors -- never retried on the dead device's slot.
  supervisor::ChaosScript script;
  script.events.push_back(crash_event(0, 1, 3));
  supervisor::Supervisor sup(degrade_options(script, 3));
  const supervisor::SupervisorReport report = sup.run();
  ASSERT_TRUE(report.completed) << report.abort_reason;
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].cls, supervisor::IncidentClass::Crash);
  EXPECT_EQ(report.incidents[0].action, supervisor::Action::Replan);
  EXPECT_EQ(report.incidents[0].device, 1);
  ASSERT_EQ(report.final_counts.size(), 2u);

  // Bit-identical to a fault-free run on the partition the replan chose.
  TrainSessionOptions opts = session_options();
  opts.counts = report.final_counts;
  TrainSession fresh(opts);
  for (int i = 0; i < 3; ++i) fresh.step();
  EXPECT_TRUE(sup.session().capture() == fresh.capture());
  EXPECT_EQ(report.losses, fresh.losses());
}

TEST(Recovery, CascadingCrashesDegradeStepByStep) {
  // 3 devices -> crash before any checkpoint (live reshard) -> 2 devices
  // -> crash after the step-1 checkpoint (restore + reshard) -> 1 device.
  ckpt::MemStorage mem;
  supervisor::ChaosScript script;
  script.events.push_back(crash_event(0, 1, 3));
  script.events.push_back(crash_event(1, 0, 2));
  supervisor::SupervisorOptions o = degrade_options(script, 3);
  o.session.storage = &mem;
  o.session.ckpt_dir = "rec/cascade";
  o.session.ckpt_interval = 1;
  supervisor::Supervisor sup(o);
  const supervisor::SupervisorReport report = sup.run();
  ASSERT_TRUE(report.completed) << report.abort_reason;
  ASSERT_EQ(report.incidents.size(), 2u);
  EXPECT_EQ(report.incidents[0].action, supervisor::Action::Replan);
  EXPECT_EQ(report.incidents[1].action, supervisor::Action::Replan);
  EXPECT_EQ(report.final_counts, (std::vector<int>{8}));

  // Same math as the unfaulted 3-device run, different accumulation order.
  TrainSession ref(session_options());
  for (int i = 0; i < 3; ++i) ref.step();
  ASSERT_EQ(report.losses.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(report.losses[i], ref.losses()[i], 1e-4) << "step " << i;
  }
  const ckpt::TrainState got = sup.session().capture();
  const ckpt::TrainState want = ref.capture();
  ASSERT_EQ(got.blocks.size(), want.blocks.size());
  for (std::size_t b = 0; b < got.blocks.size(); ++b) {
    for (std::size_t p = 0; p < got.blocks[b].params.size(); ++p) {
      const auto& a = got.blocks[b].params[p].value;
      const auto& w = want.blocks[b].params[p].value;
      ASSERT_EQ(a.size(), w.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_NEAR(a[k], w[k], 1e-4) << "block " << b << " param " << p;
      }
    }
  }
}

}  // namespace
}  // namespace autopipe::runtime
