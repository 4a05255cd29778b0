// Fault-injection suite (ctest label `faults`): the FaultPlan taxonomy,
// fault-aware discrete-event execution, and the Monte-Carlo robustness
// evaluator with its planner knob.
#include <gtest/gtest.h>

#include <cmath>

#include "core/planner.h"
#include "core/schedule.h"
#include "faults/fault_plan.h"
#include "faults/robustness.h"
#include "sim/executor.h"
#include "util/thread_pool.h"

namespace autopipe::faults {
namespace {

// ------------------------------------------------------------- fault plan

TEST(FaultPlan, SlowdownIsProductOfMatchingWindows) {
  FaultPlan plan;
  plan.stragglers.push_back({0, 10.0, 20.0, 2.0});
  plan.stragglers.push_back({0, 15.0, 30.0, 1.5});
  plan.stragglers.push_back({1, 0.0, 100.0, 3.0});
  EXPECT_DOUBLE_EQ(plan.slowdown(0, 5.0), 1.0);    // before both windows
  EXPECT_DOUBLE_EQ(plan.slowdown(0, 12.0), 2.0);   // first only
  EXPECT_DOUBLE_EQ(plan.slowdown(0, 17.0), 3.0);   // overlap: 2.0 * 1.5
  EXPECT_DOUBLE_EQ(plan.slowdown(0, 25.0), 1.5);   // second only
  EXPECT_DOUBLE_EQ(plan.slowdown(0, 20.0), 1.5);   // end is exclusive
  EXPECT_DOUBLE_EQ(plan.slowdown(2, 12.0), 1.0);   // other device untouched
}

TEST(FaultPlan, TransferPaysOutageRetriesThenSpike) {
  FaultPlan plan;
  plan.outages.push_back({0, 10.0, 12.0, 0.5});
  plan.spikes.push_back({0, 0.0, 100.0, 3.0});
  // Departing at 10.0 inside the outage: retries at 10.5, 11.0, ..., first
  // success at 12.0 -> 4 failed attempts, then the spike applies at the
  // delayed departure.
  const TransferOutcome out = plan.transfer(0, 10.0, 1.0);
  EXPECT_EQ(out.retries, 4);
  EXPECT_DOUBLE_EQ(out.lag_ms, (12.0 - 10.0) + 1.0 + 3.0);
  // Departing outside the outage: no retries, spike only.
  const TransferOutcome clean = plan.transfer(0, 50.0, 1.0);
  EXPECT_EQ(clean.retries, 0);
  EXPECT_DOUBLE_EQ(clean.lag_ms, 4.0);
  // Other boundaries are untouched.
  EXPECT_DOUBLE_EQ(plan.transfer(1, 10.0, 1.0).lag_ms, 1.0);
}

TEST(FaultPlan, CrashLookupsAndRuntimeTrigger) {
  FaultPlan plan;
  plan.crashes.push_back({1, 40.0, -1});
  plan.crashes.push_back({1, 25.0, -1});
  ASSERT_NE(plan.crash_for(1), nullptr);
  EXPECT_DOUBLE_EQ(plan.crash_for(1)->at_ms, 25.0);  // earliest wins
  EXPECT_EQ(plan.crash_for(0), nullptr);

  FaultPlan rt;
  rt.crashes.push_back({2, std::numeric_limits<double>::infinity(), 5});
  EXPECT_FALSE(rt.crashes_before_op(2, 4));
  EXPECT_TRUE(rt.crashes_before_op(2, 5));
  EXPECT_TRUE(rt.crashes_before_op(2, 9));
  EXPECT_FALSE(rt.crashes_before_op(0, 9));
}

TEST(FaultPlan, ValidateRejectsOutOfRangeAndNonPositive) {
  FaultPlan ok;
  ok.stragglers.push_back({0, 0, 10, 1.5});
  EXPECT_NO_THROW(ok.validate(2, 1));

  FaultPlan bad_device;
  bad_device.stragglers.push_back({5, 0, 10, 1.5});
  EXPECT_THROW(bad_device.validate(2, 1), std::invalid_argument);

  FaultPlan bad_slowdown;
  bad_slowdown.stragglers.push_back({0, 0, 10, 0.5});
  EXPECT_THROW(bad_slowdown.validate(2, 1), std::invalid_argument);

  FaultPlan bad_boundary;
  bad_boundary.spikes.push_back({3, 0, 10, 1.0});
  EXPECT_THROW(bad_boundary.validate(2, 1), std::invalid_argument);

  FaultPlan bad_backoff;
  bad_backoff.outages.push_back({0, 0, 10, 0.0});
  EXPECT_THROW(bad_backoff.validate(2, 1), std::invalid_argument);
}

TEST(FaultPlan, SampledPlansAreSeedDeterministic) {
  FaultDistribution dist;
  dist.outage_prob = 0.3;
  const FaultPlan a = sample_fault_plan(dist, 8, 7, 100.0, 42);
  const FaultPlan b = sample_fault_plan(dist, 8, 7, 100.0, 42);
  ASSERT_EQ(a.stragglers.size(), b.stragglers.size());
  for (std::size_t i = 0; i < a.stragglers.size(); ++i) {
    EXPECT_EQ(a.stragglers[i].device, b.stragglers[i].device);
    EXPECT_DOUBLE_EQ(a.stragglers[i].start_ms, b.stragglers[i].start_ms);
    EXPECT_DOUBLE_EQ(a.stragglers[i].slowdown, b.stragglers[i].slowdown);
  }
  ASSERT_EQ(a.spikes.size(), b.spikes.size());
  ASSERT_EQ(a.outages.size(), b.outages.size());
  // A sampled plan always validates against its own shape.
  EXPECT_NO_THROW(a.validate(8, 7));
  // Different seeds explore different scenarios (with 8 devices at 20%
  // straggler probability, 100 consecutive seeds cannot all coincide).
  bool any_difference = false;
  for (std::uint64_t s = 0; s < 100 && !any_difference; ++s) {
    const FaultPlan c = sample_fault_plan(dist, 8, 7, 100.0, 1000 + s);
    any_difference = c.stragglers.size() != a.stragglers.size() ||
                     c.spikes.size() != a.spikes.size() ||
                     c.outages.size() != a.outages.size();
  }
  EXPECT_TRUE(any_difference);
}

// -------------------------------------------------- fault-aware execution

core::Schedule test_schedule(int stages = 4, int m = 8) {
  std::vector<core::StageCost> costs(static_cast<std::size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    costs[static_cast<std::size_t>(s)] = {1.0 + 0.1 * s, 2.0 + 0.1 * s};
  }
  return core::build_1f1b(costs, m, 0.25);
}

void expect_identical(const sim::ExecResult& a, const sim::ExecResult& b) {
  EXPECT_EQ(a.iteration_ms, b.iteration_ms);
  EXPECT_EQ(a.startup_ms, b.startup_ms);
  EXPECT_EQ(a.device_busy_ms, b.device_busy_ms);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].start_ms, b.trace[i].start_ms);
    EXPECT_EQ(a.trace[i].end_ms, b.trace[i].end_ms);
    EXPECT_EQ(a.trace[i].device, b.trace[i].device);
  }
  EXPECT_EQ(a.failure.crashed, b.failure.crashed);
  EXPECT_EQ(a.link_retries, b.link_retries);
}

TEST(FaultExec, EmptyPlanIsBitIdenticalToNoPlan) {
  const auto schedule = test_schedule();
  sim::ExecOptions with_jitter;
  with_jitter.per_op_overhead_ms = 0.05;
  with_jitter.jitter_frac = 0.02;
  for (const sim::ExecOptions& base : {sim::ExecOptions{}, with_jitter}) {
    const sim::ExecResult none = sim::execute(schedule, base);
    FaultPlan empty;
    sim::ExecOptions faulted = base;
    faulted.faults = &empty;
    expect_identical(none, sim::execute(schedule, faulted));
    // A non-empty plan whose faults never match is numerically identical
    // too: slowdown() returns exactly 1.0 and transfer() adds exactly 0.
    FaultPlan unmatched;
    unmatched.stragglers.push_back({0, 1e9, 2e9, 4.0});
    unmatched.spikes.push_back({0, 1e9, 2e9, 5.0});
    faulted.faults = &unmatched;
    expect_identical(none, sim::execute(schedule, faulted));
  }
}

TEST(FaultExec, StragglerStretchesWindowedOps) {
  const auto schedule = test_schedule();
  const sim::ExecResult base = sim::execute(schedule);
  FaultPlan plan;
  plan.stragglers.push_back({1, 0.0, std::numeric_limits<double>::infinity(),
                             2.0});
  sim::ExecOptions opts;
  opts.faults = &plan;
  const sim::ExecResult slow = sim::execute(schedule, opts);
  EXPECT_GT(slow.iteration_ms, base.iteration_ms);
  // Device 1's busy time exactly doubles (whole-iteration window).
  EXPECT_NEAR(slow.device_busy_ms[1], 2.0 * base.device_busy_ms[1], 1e-9);
  EXPECT_EQ(slow.device_busy_ms[0], base.device_busy_ms[0]);
  EXPECT_FALSE(slow.failure.crashed);
}

TEST(FaultExec, LinkOutagePaysRetries) {
  const auto schedule = test_schedule();
  const sim::ExecResult base = sim::execute(schedule);
  FaultPlan plan;
  plan.outages.push_back({0, 0.0, 5.0, 0.5});
  sim::ExecOptions opts;
  opts.faults = &plan;
  const sim::ExecResult out = sim::execute(schedule, opts);
  EXPECT_GT(out.link_retries, 0);
  EXPECT_GE(out.iteration_ms, base.iteration_ms);
}

TEST(FaultExec, CrashTruncatesTraceAndReports) {
  const auto schedule = test_schedule();
  const sim::ExecResult base = sim::execute(schedule);
  int total_ops = 0;
  for (const auto& dev : schedule.order) {
    total_ops += static_cast<int>(dev.size());
  }

  FaultPlan plan;
  plan.crashes.push_back({2, base.iteration_ms / 3, -1});
  sim::ExecOptions opts;
  opts.faults = &plan;
  const sim::ExecResult crashed = sim::execute(schedule, opts);
  EXPECT_TRUE(crashed.failure.crashed);
  EXPECT_EQ(crashed.failure.device, 2);
  EXPECT_DOUBLE_EQ(crashed.failure.at_ms, base.iteration_ms / 3);
  EXPECT_GT(crashed.failure.lost_ops, 0);
  EXPECT_EQ(crashed.failure.completed_ops + crashed.failure.lost_ops,
            total_ops);
  EXPECT_EQ(crashed.trace.size(),
            static_cast<std::size_t>(crashed.failure.completed_ops));
  // Every surviving op finished by the crash or ran on another device's
  // already-started work; none may *end* after the crash on the dead device.
  for (const auto& op : crashed.trace) {
    if (op.device == 2) {
      EXPECT_LE(op.end_ms, crashed.failure.at_ms);
    }
  }
  EXPECT_LT(crashed.failure.completed_ops, total_ops);
}

TEST(FaultExec, RuntimeOnlyCrashDoesNotTouchSimTimeline) {
  // A crash armed by after_ops (thread-runtime trigger) has an infinite
  // at_ms: the simulator must treat the plan as harmless.
  const auto schedule = test_schedule();
  const sim::ExecResult base = sim::execute(schedule);
  FaultPlan plan;
  plan.crashes.push_back({1, std::numeric_limits<double>::infinity(), 4});
  sim::ExecOptions opts;
  opts.faults = &plan;
  const sim::ExecResult r = sim::execute(schedule, opts);
  EXPECT_FALSE(r.failure.crashed);
  EXPECT_EQ(r.iteration_ms, base.iteration_ms);
}

// ------------------------------------------------------------- robustness

TEST(Robustness, ZeroTrialsReportsNominalOnly) {
  const auto schedule = test_schedule();
  RobustnessOptions rob;  // trials = 0
  const RobustnessReport r = evaluate_robustness(schedule, {}, rob);
  EXPECT_EQ(r.trials, 0);
  EXPECT_GT(r.nominal_ms, 0.0);
  EXPECT_EQ(r.p50_ms, r.nominal_ms);
  EXPECT_EQ(r.p99_ms, r.nominal_ms);
}

TEST(Robustness, ReportIsBitIdenticalAcrossThreadCounts) {
  const auto schedule = test_schedule();
  RobustnessOptions rob;
  rob.trials = 64;
  rob.seed = 11;
  rob.dist.outage_prob = 0.2;
  const RobustnessReport serial = evaluate_robustness(schedule, {}, rob);
  util::ThreadPool pool4(4);
  const RobustnessReport parallel =
      evaluate_robustness(schedule, {}, rob, &pool4);
  EXPECT_EQ(serial.mean_ms, parallel.mean_ms);
  EXPECT_EQ(serial.p50_ms, parallel.p50_ms);
  EXPECT_EQ(serial.p95_ms, parallel.p95_ms);
  EXPECT_EQ(serial.p99_ms, parallel.p99_ms);
  EXPECT_EQ(serial.worst_ms, parallel.worst_ms);
  EXPECT_EQ(serial.link_retries, parallel.link_retries);
  // Quantiles are ordered and bounded by the extremes.
  EXPECT_LE(serial.p50_ms, serial.p95_ms);
  EXPECT_LE(serial.p95_ms, serial.p99_ms);
  EXPECT_LE(serial.p99_ms, serial.worst_ms);
  EXPECT_GE(serial.p50_ms, serial.nominal_ms);  // faults never speed it up
}

TEST(Robustness, RejectsBadOptions) {
  const auto schedule = test_schedule();
  RobustnessOptions negative;
  negative.trials = -1;
  EXPECT_THROW(evaluate_robustness(schedule, {}, negative),
               std::invalid_argument);
  RobustnessOptions quantile;
  quantile.trials = 4;
  quantile.quantile = 120.0;
  EXPECT_THROW(evaluate_robustness(schedule, {}, quantile),
               std::invalid_argument);
}

// ----------------------------------------------------------- planner knob

costmodel::ModelConfig planner_config() {
  costmodel::ModelSpec spec = costmodel::model_by_name("gpt2-345m");
  return costmodel::build_model_config(spec, {4, 0, true});
}

TEST(PlannerRobustness, KnobOffMatchesNominalSearch) {
  const auto cfg = planner_config();
  const auto nominal = core::plan(cfg, 4, 8);
  EXPECT_FALSE(nominal.robust_ranked);
  EXPECT_EQ(nominal.robustness.trials, 0);
}

TEST(PlannerRobustness, RankedWinnerIsDeterministicAcrossThreads) {
  const auto cfg = planner_config();
  core::PlannerOptions options;
  options.robustness.trials = 32;
  options.robustness.seed = 5;
  options.robustness.candidates = 3;
  const auto serial = core::plan(cfg, 4, 8, options);
  EXPECT_TRUE(serial.robust_ranked);
  EXPECT_EQ(serial.robustness.trials, 32);
  EXPECT_GT(serial.robustness.p95_ms, 0.0);
  // The winner must not depend on the worker count (the determinism
  // contract of the search extends to the Monte-Carlo re-rank).
  for (int threads : {2, 8}) {
    core::PlannerOptions par = options;
    par.threads = threads;
    const auto r = core::plan(cfg, 4, 8, par);
    EXPECT_EQ(r.partition.counts, serial.partition.counts);
    EXPECT_EQ(r.robustness.score_ms, serial.robustness.score_ms);
    EXPECT_EQ(r.robustness.p99_ms, serial.robustness.p99_ms);
  }
  // The robust winner's nominal time can only be >= the nominal optimum.
  const auto nominal = core::plan(cfg, 4, 8);
  EXPECT_GE(serial.sim.iteration_ms, nominal.sim.iteration_ms);
}

}  // namespace
}  // namespace autopipe::faults
