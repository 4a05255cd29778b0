// Self-healing supervisor suite (DESIGN.md §10): health board semantics,
// cancellation, plan-aware watchdog deadlines and blame, chaos scripting,
// armed torn-write storage, and the full escalation ladder -- every rung
// proven against an unfaulted reference run.
//
// Suites are named Supervisor* so the CI TSan job picks the whole file up:
// the board is written wait-free from worker threads while the watchdog
// samples it, and the watchdog races the iteration's own completion --
// exactly the interleavings TSan must see.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/storage.h"
#include "core/schedule.h"
#include "costmodel/analytic.h"
#include "model/transformer.h"
#include "runtime/cancel.h"
#include "runtime/health.h"
#include "runtime/train_session.h"
#include "supervisor/chaos.h"
#include "supervisor/supervisor.h"
#include "supervisor/watchdog.h"

namespace autopipe::supervisor {
namespace {

/// Same CPU-scale transformer the fault/ckpt suites train: 3 layers ->
/// 8 blocks, a 3-stage pipeline with room to degrade onto 2.
model::TinySpec tiny_spec() {
  model::TinySpec s;
  s.layers = 3;
  s.hidden = 16;
  s.heads = 2;
  s.vocab = 32;
  s.seq = 4;
  return s;
}

costmodel::ModelConfig tiny_config() {
  const model::TinySpec t = tiny_spec();
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

runtime::TrainSessionOptions tiny_session(ckpt::Storage* storage,
                                          const std::string& dir) {
  runtime::TrainSessionOptions opts;
  opts.spec = tiny_spec();
  opts.counts = {2, 3, 3};
  opts.micro_batch = 2;
  opts.num_micro_batches = 6;
  opts.ckpt_dir = dir;
  opts.ckpt_interval = 2;
  opts.ckpt_keep = 3;
  opts.storage = storage;
  return opts;
}

SupervisorOptions tiny_supervisor(ckpt::Storage* storage,
                                  const std::string& dir, int steps) {
  SupervisorOptions o;
  o.session = tiny_session(storage, dir);
  o.config = tiny_config();
  o.target_steps = steps;
  o.watchdog.grace_ms = 500;
  return o;
}

struct Reference {
  ckpt::TrainState state;
  std::vector<double> losses;
};

Reference unfaulted_reference(int steps) {
  runtime::TrainSessionOptions opts = tiny_session(nullptr, "");
  opts.ckpt_interval = 0;
  runtime::TrainSession ref(opts);
  for (int i = 0; i < steps; ++i) ref.step();
  return {ref.capture(), ref.losses()};
}

void expect_bit_identical(const Supervisor& sup,
                          const SupervisorReport& report,
                          const Reference& ref) {
  const ckpt::TrainState got = sup.session().capture();
  EXPECT_TRUE(got.blocks == ref.state.blocks);
  EXPECT_TRUE(got.data_rng == ref.state.data_rng);
  EXPECT_EQ(got.adam_t, ref.state.adam_t);
  ASSERT_EQ(report.losses.size(), ref.losses.size());
  for (std::size_t i = 0; i < report.losses.size(); ++i) {
    EXPECT_EQ(report.losses[i], ref.losses[i]) << "step " << i;
  }
}

// ---------------------------------------------------------- health board

TEST(SupervisorHealth, BeatsAdvanceOpsAndResetSilence) {
  runtime::HealthBoard board(4);
  board.reset(3);
  EXPECT_EQ(board.devices(), 3);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(board.ops_done(d), 0);
    EXPECT_EQ(board.state(d), runtime::DeviceHealth::Idle);
  }
  board.beat(1, 5);
  EXPECT_EQ(board.ops_done(1), 5);
  // A beat stamps "now": silence is near zero right after.
  EXPECT_LT(board.silent_ms(1), 200.0);
  board.mark(2, runtime::DeviceHealth::Done);
  EXPECT_EQ(board.state(2), runtime::DeviceHealth::Done);
}

TEST(SupervisorHealth, SilenceGrowsWhileQuiet) {
  runtime::HealthBoard board(1);
  board.reset(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GE(board.silent_ms(0), 25.0);
}

TEST(SupervisorHealth, RejectsIllFormedSizes) {
  EXPECT_THROW(runtime::HealthBoard(0), std::invalid_argument);
  runtime::HealthBoard board(2);
  EXPECT_THROW(board.reset(3), std::invalid_argument);
  EXPECT_THROW(board.reset(0), std::invalid_argument);
}

TEST(SupervisorHealth, ConcurrentBeatsAreWaitFreeAndVisible) {
  // One writer thread per device against a reader sampling the whole
  // board -- the production shape (workers beat, watchdog samples).
  constexpr int kDevices = 4;
  constexpr int kBeats = 2000;
  runtime::HealthBoard board(kDevices);
  board.reset(kDevices);
  std::vector<std::thread> writers;
  for (int d = 0; d < kDevices; ++d) {
    writers.emplace_back([&board, d] {
      for (int i = 1; i <= kBeats; ++i) board.beat(d, i);
      board.mark(d, runtime::DeviceHealth::Done);
    });
  }
  bool all_done = false;
  while (!all_done) {
    all_done = true;
    for (int d = 0; d < kDevices; ++d) {
      board.silent_ms(d);  // sampled concurrently with beats
      all_done = all_done && board.state(d) == runtime::DeviceHealth::Done;
    }
  }
  for (std::thread& w : writers) w.join();
  for (int d = 0; d < kDevices; ++d) EXPECT_EQ(board.ops_done(d), kBeats);
}

// --------------------------------------------------------- cancel token

TEST(SupervisorCancel, FirstReasonWinsAndWaitsWake) {
  runtime::CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.wait_for_ms(1));
  std::thread waiter([&token] { token.wait(); });
  token.cancel("first");
  token.cancel("second");
  waiter.join();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "first");
  EXPECT_TRUE(token.wait_for_ms(0));
}

// ------------------------------------------------- plan-aware deadlines

TEST(SupervisorWatchdog, GapsAndBlameTableComeFromThePricedSchedule) {
  const std::vector<core::StageCost> costs{{1.0, 2.0}, {1.0, 2.0}, {1.0, 2.0}};
  const core::Schedule sched = core::build_1f1b(costs, 6, 0.1);
  const core::ScheduleEval eval = core::evaluate_schedule(sched);
  const std::vector<double> gaps = max_silent_gaps_ms(sched, eval);
  ASSERT_EQ(gaps.size(), 3u);
  for (double g : gaps) EXPECT_GT(g, 0.0);
  // Stage 0 idles longest under 1F1B (waits out the first backward chain);
  // the last stage alternates F/B with no comparable bubble.
  EXPECT_GT(gaps[0], gaps[2]);

  const std::vector<std::vector<double>> ends =
      device_op_ends_ms(sched, eval);
  ASSERT_EQ(ends.size(), 3u);
  for (int d = 0; d < 3; ++d) {
    ASSERT_EQ(ends[d].size(), sched.order[d].size());
    EXPECT_TRUE(std::is_sorted(ends[d].begin(), ends[d].end()));
  }
}

TEST(SupervisorWatchdog, FiresOnSilenceAndBlamesTheStarvedSchedule) {
  // Nobody beats: every device blows the grace deadline. With a blame
  // table, the verdict goes to the device owing the earliest op.
  runtime::HealthBoard board(2);
  board.reset(2);
  runtime::CancelToken token;
  WatchdogOptions w;
  w.grace_ms = 40;
  w.poll_ms = 2;
  Watchdog dog(board, token, {0.0, 0.0}, w, {{5.0, 9.0}, {7.0, 11.0}});
  dog.arm();
  EXPECT_TRUE(token.wait_for_ms(5000));
  const WatchdogVerdict verdict = dog.disarm();
  ASSERT_TRUE(verdict.fired);
  EXPECT_EQ(verdict.device, 0);  // owes op at sim 5.0 -- earliest
  EXPECT_GE(verdict.silent_ms, 40.0);
  EXPECT_NE(token.reason().find("watchdog"), std::string::npos);
}

TEST(SupervisorWatchdog, StarvedPeerPastItsDeadlineWaitsForTheCulprit) {
  // Device 1 is silent from the start (starved); device 0 owes the
  // earliest op, so it is blamed, but it keeps beating. The watchdog must
  // not fire on device 1's silence alone: the verdict would name device 0
  // silent for less than its deadline. It fires once device 0 goes quiet.
  runtime::HealthBoard board(2);
  board.reset(2);
  runtime::CancelToken token;
  WatchdogOptions w;
  w.grace_ms = 100;
  w.poll_ms = 2;
  Watchdog dog(board, token, {0.0, 0.0}, w, {{5.0, 9.0}, {20.0, 30.0}});
  dog.arm();
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  while (std::chrono::steady_clock::now() < until) {
    board.beat(0, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(token.cancelled()) << token.reason();
  EXPECT_TRUE(token.wait_for_ms(5000));
  const WatchdogVerdict verdict = dog.disarm();
  ASSERT_TRUE(verdict.fired);
  EXPECT_EQ(verdict.device, 0);
  EXPECT_DOUBLE_EQ(verdict.deadline_ms, 100.0);
  EXPECT_GT(verdict.silent_ms, verdict.deadline_ms);
  EXPECT_GE(verdict.detection_ms, 250.0);
}

TEST(SupervisorWatchdog, DoneDevicesAreNeverBlamed) {
  runtime::HealthBoard board(2);
  board.reset(2);
  board.mark(0, runtime::DeviceHealth::Done);
  runtime::CancelToken token;
  WatchdogOptions w;
  w.grace_ms = 40;
  w.poll_ms = 2;
  Watchdog dog(board, token, {0.0, 0.0}, w);
  dog.arm();
  EXPECT_TRUE(token.wait_for_ms(5000));
  const WatchdogVerdict verdict = dog.disarm();
  ASSERT_TRUE(verdict.fired);
  EXPECT_EQ(verdict.device, 1);
}

TEST(SupervisorWatchdog, QuietWhenEveryDeviceKeepsBeating) {
  runtime::HealthBoard board(1);
  board.reset(1);
  runtime::CancelToken token;
  WatchdogOptions w;
  w.grace_ms = 60;
  w.poll_ms = 2;
  Watchdog dog(board, token, {0.0}, w);
  dog.arm();
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
  int ops = 0;
  while (std::chrono::steady_clock::now() < until) {
    board.beat(0, ++ops);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const WatchdogVerdict verdict = dog.disarm();
  EXPECT_FALSE(verdict.fired);
  EXPECT_FALSE(token.cancelled());
}

// -------------------------------------------------------- chaos scripts

TEST(SupervisorChaos, SampleIsDeterministicAndSpansEveryClass) {
  ChaosScriptOptions opts;
  opts.steps = 20;
  opts.incidents = 10;
  const ChaosScript a = ChaosScript::sample(opts, 99);
  const ChaosScript b = ChaosScript::sample(opts, 99);
  ASSERT_EQ(a.events.size(), 10u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].step, b.events[i].step);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].device, b.events[i].device);
  }
  bool seen[5] = {};
  for (const ChaosEvent& e : a.events) seen[static_cast<int>(e.kind)] = true;
  for (bool s : seen) EXPECT_TRUE(s);  // >= 5 incidents span all classes
  // At most one runtime fault per (step, device): one attempt, one origin.
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    for (std::size_t j = i + 1; j < a.events.size(); ++j) {
      if (a.events[i].kind == ChaosKind::TornCheckpoint ||
          a.events[j].kind == ChaosKind::TornCheckpoint) {
        continue;
      }
      EXPECT_FALSE(a.events[i].step == a.events[j].step &&
                   a.events[i].device == a.events[j].device)
          << "events " << i << " and " << j;
    }
  }
}

TEST(SupervisorChaos, ArmedStorageTearsExactlyOnce) {
  ckpt::MemStorage mem;
  ArmedStorage armed(mem);
  armed.write_file("a", "unarmed passthrough");
  EXPECT_EQ(mem.read_file("a"), "unarmed passthrough");

  armed.arm_torn_write(4);
  EXPECT_TRUE(armed.armed());
  EXPECT_THROW(armed.write_file("b", "0123456789"), ckpt::StorageError);
  EXPECT_EQ(mem.read_file("b"), "0123");  // the torn prefix persisted
  EXPECT_FALSE(armed.armed());            // one-shot
  EXPECT_EQ(armed.torn_writes(), 1);
  armed.write_file("c", "clean again");
  EXPECT_EQ(mem.read_file("c"), "clean again");
}

// -------------------------------------------------- escalation ladder

TEST(SupervisorRecovery, FaithfulRunHasNoIncidents) {
  ckpt::MemStorage mem;
  SupervisorOptions o = tiny_supervisor(&mem, "sup/faithful", 4);
  Supervisor sup(o);
  const SupervisorReport report = sup.run();
  ASSERT_TRUE(report.completed) << report.abort_reason;
  EXPECT_EQ(report.steps_done, 4);
  EXPECT_TRUE(report.incidents.empty());
  EXPECT_EQ(report.recovery_actions, 0);
  expect_bit_identical(sup, report, unfaulted_reference(4));
}

TEST(SupervisorRecovery, CrashRestoresFromCheckpointBitIdentically) {
  ckpt::MemStorage mem;
  ChaosScript script;
  ChaosEvent ev;
  ev.step = 3;  // a step-2 checkpoint exists (interval 2)
  ev.kind = ChaosKind::Crash;
  ev.device = 1;
  ev.op_index = 2;
  script.events.push_back(ev);

  SupervisorOptions o = tiny_supervisor(&mem, "sup/crash", 5);
  o.chaos = &script;
  Supervisor sup(o);
  const SupervisorReport report = sup.run();
  ASSERT_TRUE(report.completed) << report.abort_reason;
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].cls, IncidentClass::Crash);
  EXPECT_EQ(report.incidents[0].action, Action::Restore);
  EXPECT_EQ(report.incidents[0].device, 1);
  EXPECT_GT(report.incidents[0].downtime_ms, 0.0);
  EXPECT_EQ(report.final_counts.size(), 3u);  // Replace keeps the width
  expect_bit_identical(sup, report, unfaulted_reference(5));
}

TEST(SupervisorRecovery, WatchdogCatchesHardHangAndRecoveryIsExact) {
  // The regression this suite exists for: a worker wedges silently (stuck
  // in a recv nobody will ever serve, no poison, no exception). Without
  // the watchdog the step never returns; with it the run must finish and
  // stay bit-identical.
  ckpt::MemStorage mem;
  ChaosScript script;
  ChaosEvent ev;
  ev.step = 1;
  ev.kind = ChaosKind::Hang;
  ev.device = 1;
  ev.op_index = 2;
  script.events.push_back(ev);

  SupervisorOptions o = tiny_supervisor(&mem, "sup/hang", 4);
  o.chaos = &script;
  o.watchdog.grace_ms = 300;
  Supervisor sup(o);
  const SupervisorReport report = sup.run();
  ASSERT_TRUE(report.completed) << report.abort_reason;
  const auto hangs = report.of_class(IncidentClass::Hang);
  ASSERT_EQ(hangs.size(), 1u);
  EXPECT_EQ(hangs[0]->device, 1);  // blame table names the wedged stage
  EXPECT_GE(hangs[0]->detect_ms, 300.0);
  expect_bit_identical(sup, report, unfaulted_reference(4));
}

TEST(SupervisorRecovery, TransientRetriesInPlaceWithoutRestore) {
  ckpt::MemStorage mem;
  ChaosScript script;
  ChaosEvent ev;
  ev.step = 2;
  ev.kind = ChaosKind::Transient;
  ev.device = 0;
  ev.op_index = 1;
  ev.failures = 8;  // outlives the worker's own in-place retry budget
  script.events.push_back(ev);

  SupervisorOptions o = tiny_supervisor(&mem, "sup/transient", 4);
  o.chaos = &script;
  Supervisor sup(o);
  const SupervisorReport report = sup.run();
  ASSERT_TRUE(report.completed) << report.abort_reason;
  ASSERT_GE(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].cls, IncidentClass::Transient);
  EXPECT_EQ(report.incidents[0].action, Action::RetryInPlace);
  expect_bit_identical(sup, report, unfaulted_reference(4));
}

TEST(SupervisorRecovery, TornCheckpointIsAbsorbedAndLaterRestoreIsValid) {
  ckpt::MemStorage mem;
  ChaosScript script;
  ChaosEvent torn;
  torn.step = 1;  // tears the step-2 checkpoint write (interval 2)
  torn.kind = ChaosKind::TornCheckpoint;
  script.events.push_back(torn);
  ChaosEvent crash;
  crash.step = 5;  // restore must skip the torn step and still succeed
  crash.kind = ChaosKind::Crash;
  crash.device = 2;
  crash.op_index = 1;
  script.events.push_back(crash);

  SupervisorOptions o = tiny_supervisor(&mem, "sup/torn", 6);
  o.chaos = &script;
  Supervisor sup(o);
  const SupervisorReport report = sup.run();
  ASSERT_TRUE(report.completed) << report.abort_reason;
  EXPECT_EQ(report.of_class(IncidentClass::Storage).size(), 1u);
  EXPECT_EQ(report.of_class(IncidentClass::Crash).size(), 1u);
  expect_bit_identical(sup, report, unfaulted_reference(6));
}

TEST(SupervisorRecovery, DegradeReshardsOntoSurvivorsWithinTolerance) {
  ckpt::MemStorage mem;
  ChaosScript script;
  ChaosEvent ev;
  ev.step = 3;
  ev.kind = ChaosKind::Crash;
  ev.device = 2;
  ev.op_index = 1;
  script.events.push_back(ev);

  SupervisorOptions o = tiny_supervisor(&mem, "sup/degrade", 5);
  o.session.ckpt_interval = 1;
  o.chaos = &script;
  o.mode = RecoveryMode::Degrade;
  Supervisor sup(o);
  const SupervisorReport report = sup.run();
  ASSERT_TRUE(report.completed) << report.abort_reason;
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].action, Action::Replan);
  EXPECT_EQ(report.final_counts.size(), 2u);

  const Reference ref = unfaulted_reference(5);
  const ckpt::TrainState got = sup.session().capture();
  ASSERT_EQ(got.blocks.size(), ref.state.blocks.size());
  double worst = 0;
  for (std::size_t b = 0; b < got.blocks.size(); ++b) {
    ASSERT_EQ(got.blocks[b].params.size(), ref.state.blocks[b].params.size());
    for (std::size_t p = 0; p < got.blocks[b].params.size(); ++p) {
      const auto& pa = got.blocks[b].params[p].value;
      const auto& pb = ref.state.blocks[b].params[p].value;
      ASSERT_EQ(pa.size(), pb.size());
      for (std::size_t k = 0; k < pa.size(); ++k) {
        worst = std::max(worst, std::abs(static_cast<double>(pa[k]) -
                                         static_cast<double>(pb[k])));
      }
    }
  }
  EXPECT_LE(worst, 1e-4);
}

TEST(SupervisorRecovery, PlanOracleOverridesAndIllFormedAnswersFallBack) {
  // A well-shaped oracle answer decides the degraded partition.
  {
    ckpt::MemStorage mem;
    ChaosScript script;
    ChaosEvent ev;
    ev.step = 2;
    ev.kind = ChaosKind::Crash;
    ev.device = 2;
    ev.op_index = 1;
    script.events.push_back(ev);
    SupervisorOptions o = tiny_supervisor(&mem, "sup/oracle", 4);
    o.session.ckpt_interval = 1;
    o.chaos = &script;
    o.mode = RecoveryMode::Degrade;
    o.plan_oracle = [](int) { return std::vector<int>{3, 5}; };
    Supervisor sup(o);
    const SupervisorReport report = sup.run();
    ASSERT_TRUE(report.completed) << report.abort_reason;
    EXPECT_EQ(report.final_counts, (std::vector<int>{3, 5}));
  }
  // An ill-formed answer (wrong block sum) falls back to the local replan
  // instead of failing the recovery.
  {
    ckpt::MemStorage mem;
    ChaosScript script;
    ChaosEvent ev;
    ev.step = 2;
    ev.kind = ChaosKind::Crash;
    ev.device = 2;
    ev.op_index = 1;
    script.events.push_back(ev);
    SupervisorOptions o = tiny_supervisor(&mem, "sup/oracle-bad", 4);
    o.session.ckpt_interval = 1;
    o.chaos = &script;
    o.mode = RecoveryMode::Degrade;
    o.plan_oracle = [](int) { return std::vector<int>{1, 1}; };
    Supervisor sup(o);
    const SupervisorReport report = sup.run();
    ASSERT_TRUE(report.completed) << report.abort_reason;
    ASSERT_EQ(report.final_counts.size(), 2u);
    EXPECT_EQ(report.final_counts[0] + report.final_counts[1], 8);
    EXPECT_NE(report.final_counts, (std::vector<int>{1, 1}));
  }
}

TEST(SupervisorRecovery, RestartBudgetExhaustionAbortsWithTypedReport) {
  ckpt::MemStorage mem;
  ChaosScript script;
  for (int s = 0; s < 3; ++s) {
    ChaosEvent ev;
    ev.step = s;
    ev.kind = ChaosKind::Crash;
    ev.device = s % 3;
    ev.op_index = 1;
    script.events.push_back(ev);
  }
  SupervisorOptions o = tiny_supervisor(&mem, "sup/budget", 6);
  o.chaos = &script;
  o.restart_budget = 1;
  Supervisor sup(o);
  const SupervisorReport report = sup.run();
  EXPECT_FALSE(report.completed);
  EXPECT_NE(report.abort_reason.find("restart budget"), std::string::npos);
  ASSERT_FALSE(report.incidents.empty());
  EXPECT_EQ(report.incidents.back().action, Action::Abort);
  EXPECT_LT(report.steps_done, 6);
}

TEST(SupervisorRecovery, SeededSoakSurvivesEveryClassBitIdentically) {
  // The in-suite miniature of examples/chaos_lab soak: >= 5 incidents
  // cycle all five classes; the run must complete and match exactly.
  ckpt::MemStorage mem;
  ChaosScriptOptions copts;
  copts.steps = 8;
  copts.devices = 3;
  copts.ops_per_device = 12;
  copts.incidents = 5;
  copts.straggler_delay_ms = 30;
  const ChaosScript script = ChaosScript::sample(copts, 17);

  SupervisorOptions o = tiny_supervisor(&mem, "sup/soak", 8);
  o.chaos = &script;
  o.watchdog.grace_ms = 400;
  o.restart_budget = 16;
  Supervisor sup(o);
  const SupervisorReport report = sup.run();
  ASSERT_TRUE(report.completed) << report.abort_reason;
  EXPECT_FALSE(report.incidents.empty());
  expect_bit_identical(sup, report, unfaulted_reference(8));
}

TEST(SupervisorRecovery, RejectsIllFormedOptions) {
  ckpt::MemStorage mem;
  SupervisorOptions o = tiny_supervisor(&mem, "sup/bad", 4);
  o.target_steps = 0;
  EXPECT_THROW(Supervisor{o}, std::invalid_argument);
  o = tiny_supervisor(&mem, "sup/bad", 4);
  o.restart_budget = -1;
  EXPECT_THROW(Supervisor{o}, std::invalid_argument);
  o = tiny_supervisor(&mem, "sup/bad", 4);
  o.session.counts = {4, 4};  // 8 blocks, fine
  o.config = tiny_config();
  Supervisor ok(o);  // shape-consistent alternatives are accepted
  o.session.counts = {2, 2};  // 4 blocks != the config's 8
  EXPECT_THROW(Supervisor{o}, std::invalid_argument);
}

}  // namespace
}  // namespace autopipe::supervisor
