// Chaos lab: the self-healing supervisor under a seeded fault barrage
// (DESIGN.md §10), plus the unsupervised fault verbs that probe one
// mechanism at a time (DESIGN.md §6-7).
//
//   chaos_lab soak    --dir PATH [flags]  seeded mixed-fault soak: crashes,
//                     hard hangs, stragglers, transient storms and torn
//                     checkpoint writes, all on one supervisor run. The run
//                     must COMPLETE and end bit-identical to an unfaulted
//                     run of the same step count (Replace-mode recoveries
//                     are state-exact).
//   chaos_lab hang    --dir PATH [flags]  one hard hang: a worker wedges
//                     silently mid-iteration; the plan-aware watchdog must
//                     cancel it, the incident must classify as Hang, and
//                     the finished run must still be bit-identical.
//   chaos_lab degrade --dir PATH [flags]  device loss without a spare: the
//                     supervisor restores the newest checkpoint resharded
//                     onto N-1 survivors (Degrade mode) and finishes within
//                     1e-4 of the unfaulted run (same math, different
//                     gradient accumulation order).
//   chaos_lab corrupt --dir PATH [flags]  seeded silent-data-corruption
//                     soak: every scripted incident is a single bit flip
//                     (activation in flight, gradient in flight, weight or
//                     optimizer state between steps) that no fail-stop
//                     detector sees. With the guard layer on, EVERY flip
//                     must be detected, classified Corruption, recovered
//                     (retry in place for in-flight flips, verified-clean
//                     restore for state flips) and the finished run must be
//                     bit-identical to the unfaulted reference.
//                     Flags: --norm-window N adds the gradient-norm guard.
//   chaos_lab ckpt    --dir PATH [flags]  checkpointed training; --kill-at J
//                     raises SIGKILL during the J-th checkpoint commit,
//                     --resume restarts from the newest valid checkpoint
//                     (--gpus N: elastic, onto N devices) and verifies the
//                     resumed loss trajectory matches an uninterrupted run.
//   chaos_lab sim     [flags]  crash/straggle the discrete-event executor
//   chaos_lab robust  [flags]  planner re-ranking under straggler noise
//   chaos_lab kill    [flags]  kill a stage mid-iteration; assert the
//                     runtime surfaces StageFailure (no hang)
//
// Supervisor flags: --steps N, --seed N,
// --schedule 1f1b|gpipe|sliced|interleaved|zero-bubble (--kind is an alias),
// --interval K (checkpoint every K steps), --grace-ms MS (watchdog floor),
// --budget N (restart budget). Soak: --incidents N, --straggler-ms MS.
// Degrade: --at STEP (when the device dies), --oracle "c0,c1" (explicit
// partition override, the plan-oracle hook), --plan-socket PATH
// [--timeout-ms MS] (consult a running plan_serve daemon; the daemon plans
// zoo models, so for this toy model its answer is rejected by shape and the
// supervisor demonstrably falls back to the local replanner instead of
// dying or blocking).
//
// Unsupervised flags: --model <zoo-name> (sim/robust), --gpus N, --mbs N,
// --gbs N, --threads N (robust: Monte-Carlo trial workers). Fault knobs:
// --seed N, --trials N, --quantile Q, --straggler-prob P, --slowdown X,
// --spike-prob P, --outage-prob P, --crash-device D, --crash-at MS (sim),
// --after-ops K (kill). Ckpt knobs:
// --iters N, --interval K, --kill-at J, --resume, --gpus N.
//
// Every verb exits 0 only when its acceptance property held; failures
// print `error: ...` on stderr and exit 1 (usage errors exit 2).
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/storage.h"
#include "core/autopipe.h"
#include "core/planner.h"
#include "core/resume.h"
#include "costmodel/analytic.h"
#include "costmodel/memory.h"
#include "faults/fault_plan.h"
#include "faults/robustness.h"
#include "model/data.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/stage_failure.h"
#include "runtime/train_session.h"
#include "sim/executor.h"
#include "supervisor/chaos.h"
#include "supervisor/supervisor.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using namespace autopipe;

/// The CPU-scale transformer every verb trains: 3 layers -> 8 blocks,
/// enough for a 3-stage pipeline with headroom to degrade to 2.
model::TinySpec tiny_spec() {
  model::TinySpec s;
  s.layers = 3;
  s.hidden = 16;
  s.heads = 2;
  s.vocab = 32;
  s.seq = 4;
  return s;
}

/// The analytic ModelConfig describing the same block array as tiny_spec()
/// -- what restores and degraded replans re-partition.
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

/// Largest |a - b| across two captured states' parameters, or 1e30 on any
/// structural mismatch (the degraded path compares with a tolerance because
/// a different partition accumulates gradients in another order).
double max_param_diff(const ckpt::TrainState& a, const ckpt::TrainState& b) {
  double worst = 0;
  if (a.blocks.size() != b.blocks.size()) return 1e30;
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    if (a.blocks[i].params.size() != b.blocks[i].params.size()) return 1e30;
    for (std::size_t p = 0; p < a.blocks[i].params.size(); ++p) {
      const auto& pa = a.blocks[i].params[p];
      const auto& pb = b.blocks[i].params[p];
      if (pa.value.size() != pb.value.size()) return 1e30;
      for (std::size_t k = 0; k < pa.value.size(); ++k) {
        worst = std::max(worst, std::fabs(static_cast<double>(pa.value[k]) -
                                          static_cast<double>(pb.value[k])));
      }
    }
  }
  return worst;
}

/// Shared session shape: the supervised run and the unfaulted reference use
/// identical options except for checkpointing and fault hooks.
runtime::TrainSessionOptions base_session(const util::Cli& cli) {
  runtime::TrainSessionOptions opts;
  opts.spec = tiny_spec();
  opts.counts = {2, 3, 3};
  // --schedule is the canonical spelling (shared parse_schedule_kind
  // grammar: 1f1b|gpipe|interleaved|sliced|zero-bubble); --kind stays as a
  // compatible alias.
  opts.kind = costmodel::parse_schedule_kind(
      cli.get("schedule", cli.get("kind", "1f1b")));
  opts.sliced =
      opts.kind == costmodel::ScheduleKind::AutoPipeSliced ? 1 : 0;
  opts.micro_batch = 2;
  opts.num_micro_batches = 6;
  return opts;
}

supervisor::SupervisorOptions base_supervisor(const util::Cli& cli,
                                              const std::string& dir,
                                              int steps) {
  supervisor::SupervisorOptions o;
  o.session = base_session(cli);
  o.session.ckpt_dir = dir;
  o.session.ckpt_interval = cli.checked_int("interval", 2, 1, 1 << 20);
  o.session.ckpt_keep = 3;
  o.config = tiny_config();
  o.target_steps = steps;
  o.watchdog.grace_ms = cli.checked_double("grace-ms", 1500.0, 50.0, 1e6);
  return o;
}

struct Reference {
  ckpt::TrainState state;
  std::vector<double> losses;
};

/// Unfaulted reference run to the same step count (no checkpointing -- the
/// verification leg must not disturb the soak's checkpoint directory).
Reference reference_run(const util::Cli& cli, int steps) {
  runtime::TrainSession ref(base_session(cli));
  for (int i = 0; i < steps; ++i) ref.step();
  return {ref.capture(), ref.losses()};
}

void print_report(const supervisor::SupervisorReport& report) {
  util::Table t({"step", "class", "action", "device", "detect (ms)",
                 "downtime (ms)"});
  for (const supervisor::Incident& inc : report.incidents) {
    t.add_row({std::to_string(inc.step), supervisor::to_string(inc.cls),
               supervisor::to_string(inc.action),
               inc.device >= 0 ? std::to_string(inc.device) : "-",
               util::Table::fmt(inc.detect_ms),
               util::Table::fmt(inc.downtime_ms)});
  }
  std::printf("%s", t.to_ascii().c_str());
  std::map<std::string, int> per_class;
  for (const supervisor::Incident& inc : report.incidents) {
    ++per_class[supervisor::to_string(inc.cls)];
  }
  std::string classes;
  for (const auto& [name, n] : per_class) {
    if (!classes.empty()) classes += ", ";
    classes += name + " x" + std::to_string(n);
  }
  std::printf("%zu incident(s) (%s), %d recovery action(s), "
              "total downtime %.1f ms\n",
              report.incidents.size(),
              classes.empty() ? "none" : classes.c_str(),
              report.recovery_actions, report.total_downtime_ms);
}

/// Asserts the supervised run ended bit-identical to `ref` -- the Replace-
/// mode acceptance property: every recovery was state-exact.
int check_bit_identical(const supervisor::Supervisor& sup,
                        const supervisor::SupervisorReport& report,
                        const Reference& ref) {
  const ckpt::TrainState got = sup.session().capture();
  const ckpt::TrainState& want = ref.state;
  if (got.blocks != want.blocks || got.data_rng != want.data_rng ||
      got.adam_t != want.adam_t) {
    std::fprintf(stderr, "error: final state diverged from the unfaulted "
                         "run (recoveries were not state-exact)\n");
    return 1;
  }
  for (std::size_t i = 0; i < report.losses.size(); ++i) {
    if (report.losses[i] != ref.losses[i]) {
      std::fprintf(stderr,
                   "error: loss at step %zu diverged (%.17g vs %.17g)\n",
                   i + 1, report.losses[i], ref.losses[i]);
      return 1;
    }
  }
  std::printf("final state and all %zu per-step losses bit-identical to "
              "the unfaulted run\n", report.losses.size());
  return 0;
}

int do_soak(const util::Cli& cli, const std::string& dir) {
  const int steps = cli.checked_int("steps", 12, 1, 1 << 20);
  const int incidents = cli.checked_int("incidents", 6, 0, 1 << 20);
  const auto seed =
      static_cast<std::uint64_t>(cli.checked_int("seed", 7, 0, 1 << 30));

  supervisor::ChaosScriptOptions copts;
  copts.steps = steps;
  copts.devices = 3;
  copts.ops_per_device = 12;  // 2 * num_micro_batches ops per device
  copts.incidents = incidents;
  copts.straggler_delay_ms =
      cli.checked_double("straggler-ms", 40.0, 0.0, 1e6);
  const supervisor::ChaosScript script =
      supervisor::ChaosScript::sample(copts, seed);

  supervisor::SupervisorOptions o = base_supervisor(cli, dir, steps);
  o.chaos = &script;
  o.restart_budget =
      cli.checked_int("budget", 2 * incidents + 6, 1, 1 << 20);

  std::printf("soak: %d step(s), %zu scripted event(s), seed %llu\n", steps,
              script.events.size(),
              static_cast<unsigned long long>(seed));
  supervisor::Supervisor sup(o);
  const supervisor::SupervisorReport report = sup.run();
  print_report(report);
  if (!report.completed) {
    std::fprintf(stderr, "error: soak aborted at step %d: %s\n",
                 report.steps_done, report.abort_reason.c_str());
    return 1;
  }
  const Reference ref = reference_run(cli, steps);
  return check_bit_identical(sup, report, ref);
}

int do_hang(const util::Cli& cli, const std::string& dir) {
  const int steps = cli.checked_int("steps", 4, 2, 1 << 20);

  supervisor::ChaosScript script;
  supervisor::ChaosEvent ev;
  ev.step = cli.checked_int("at", 1, 0, steps - 1);
  ev.kind = supervisor::ChaosKind::Hang;
  ev.device = cli.checked_int("device", 1, 0, 2);
  ev.op_index = 2;
  script.events.push_back(ev);

  supervisor::SupervisorOptions o = base_supervisor(cli, dir, steps);
  o.chaos = &script;
  o.watchdog.grace_ms = cli.checked_double("grace-ms", 800.0, 50.0, 1e6);

  std::printf("hang: device %d wedges silently at step %d; watchdog grace "
              "%.0f ms\n", ev.device, ev.step + 1, o.watchdog.grace_ms);
  supervisor::Supervisor sup(o);
  const supervisor::SupervisorReport report = sup.run();
  print_report(report);
  if (!report.completed) {
    std::fprintf(stderr, "error: run aborted: %s\n",
                 report.abort_reason.c_str());
    return 1;
  }
  const auto hangs = report.of_class(supervisor::IncidentClass::Hang);
  if (hangs.empty()) {
    std::fprintf(stderr, "error: the hang was never classified as Hang\n");
    return 1;
  }
  std::printf("watchdog detected the hang in %.1f ms (device %d)\n",
              hangs.front()->detect_ms, hangs.front()->device);
  const Reference ref = reference_run(cli, steps);
  return check_bit_identical(sup, report, ref);
}

/// Parses "c0,c1,..." into counts; throws on junk.
std::vector<int> parse_counts(const std::string& text) {
  std::vector<int> counts;
  std::string token;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && text[i] != ',') {
      token.push_back(text[i]);
      continue;
    }
    counts.push_back(std::stoi(token));
    token.clear();
  }
  return counts;
}

/// Deadline-bounded plan query against a running plan_serve daemon: connect,
/// send one request, poll for the response, extract its counts= token.
/// Throws on timeout or a malformed answer -- the supervisor treats a
/// throwing oracle as "consult failed, fall back to the local planner".
std::vector<int> query_plan_daemon(const std::string& socket_path,
                                   double timeout_ms, int num_gpus) {
  using clock_t_ = std::chrono::steady_clock;
  const clock_t_::time_point deadline =
      clock_t_::now() + std::chrono::duration_cast<clock_t_::duration>(
                            std::chrono::duration<double, std::milli>(
                                timeout_ms));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("could not connect to " + socket_path);
  }
  const std::string request = "plan id=chaos model=gpt2-345m gpus=" +
                              std::to_string(num_gpus) + " gbs=64\n";
  std::size_t done = 0;
  while (done < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + done, request.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("write to daemon failed");
    }
    done += static_cast<std::size_t>(n);
  }
  std::string response;
  char c;
  while (true) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - clock_t_::now());
    if (remaining.count() <= 0) {
      ::close(fd);
      throw std::runtime_error("plan daemon did not answer within " +
                               std::to_string(timeout_ms) + " ms");
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0 && errno != EINTR) {
      ::close(fd);
      throw std::runtime_error("poll on daemon connection failed");
    }
    if (ready <= 0) continue;
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("read from daemon failed");
    }
    if (n == 0) {
      ::close(fd);
      throw std::runtime_error("daemon closed the connection");
    }
    if (c == '\n') break;
    response.push_back(c);
  }
  ::close(fd);
  const std::size_t at = response.find("counts=");
  if (response.rfind("ok ", 0) != 0 || at == std::string::npos) {
    throw std::runtime_error("daemon answered '" + response + "'");
  }
  const std::size_t end = response.find(' ', at);
  return parse_counts(response.substr(
      at + 7, end == std::string::npos ? std::string::npos : end - at - 7));
}

int do_degrade(const util::Cli& cli, const std::string& dir) {
  const int steps = cli.checked_int("steps", 6, 2, 1 << 20);

  supervisor::ChaosScript script;
  supervisor::ChaosEvent ev;
  ev.step = cli.checked_int("at", 3, 1, steps - 1);
  ev.kind = supervisor::ChaosKind::Crash;
  ev.device = cli.checked_int("device", 2, 0, 2);
  ev.op_index = 1;
  script.events.push_back(ev);

  supervisor::SupervisorOptions o = base_supervisor(cli, dir, steps);
  // Checkpoint every step so the crash always has something to restore.
  o.session.ckpt_interval = cli.checked_int("interval", 1, 1, 1 << 20);
  o.chaos = &script;
  o.mode = supervisor::RecoveryMode::Degrade;

  if (cli.has("oracle")) {
    // Explicit partition override: what an external planner would answer.
    const std::vector<int> counts = parse_counts(cli.get("oracle", ""));
    o.plan_oracle = [counts](int) { return counts; };
  } else if (cli.has("plan-socket")) {
    const std::string socket_path = cli.get("plan-socket", "");
    const double timeout_ms =
        cli.checked_double("timeout-ms", 2000.0, 1.0, 3600000.0);
    o.plan_oracle = [socket_path, timeout_ms](int num_gpus) {
      return query_plan_daemon(socket_path, timeout_ms, num_gpus);
    };
  }

  std::printf("degrade: device %d dies at step %d; restoring onto 2 "
              "survivors\n", ev.device, ev.step + 1);
  supervisor::Supervisor sup(o);
  const supervisor::SupervisorReport report = sup.run();
  print_report(report);
  if (!report.completed) {
    std::fprintf(stderr, "error: run aborted: %s\n",
                 report.abort_reason.c_str());
    return 1;
  }
  std::string counts;
  for (int c : report.final_counts) {
    if (!counts.empty()) counts += ' ';
    counts += std::to_string(c);
  }
  std::printf("finished on %zu device(s) (partition [%s])\n",
              report.final_counts.size(), counts.c_str());
  if (report.final_counts.size() != 2) {
    std::fprintf(stderr, "error: expected a 2-stage degraded partition\n");
    return 1;
  }
  const Reference ref = reference_run(cli, steps);
  const double diff = max_param_diff(sup.session().capture(), ref.state);
  std::printf("max param diff vs unfaulted 3-device run: %.3g\n", diff);
  if (diff > 1e-4) {
    std::fprintf(stderr, "error: degraded recovery diverged (%.3g > 1e-4)\n",
                 diff);
    return 1;
  }
  std::printf("degraded run matches the unfaulted run within 1e-4\n");
  return 0;
}

int do_corrupt(const util::Cli& cli, const std::string& dir) {
  const int steps = cli.checked_int("steps", 24, 1, 1 << 20);
  const int incidents = cli.checked_int("incidents", 8, 0, 1 << 20);
  const auto seed =
      static_cast<std::uint64_t>(cli.checked_int("seed", 7, 0, 1 << 30));
  const int norm_window = cli.checked_int("norm-window", 0, 0, 1 << 20);

  supervisor::ChaosScriptOptions copts;
  copts.steps = steps;
  copts.devices = 3;
  copts.ops_per_device = 12;
  copts.incidents = incidents;
  copts.classes = {supervisor::ChaosKind::CorruptActivation,
                   supervisor::ChaosKind::CorruptGradient,
                   supervisor::ChaosKind::CorruptWeight,
                   supervisor::ChaosKind::CorruptOptimizer};
  const supervisor::ChaosScript script =
      supervisor::ChaosScript::sample(copts, seed);

  supervisor::SupervisorOptions o = base_supervisor(cli, dir, steps);
  // Checkpoint every step so a state flip always has a verified-clean
  // checkpoint at most one step old to restore from.
  o.session.ckpt_interval = cli.checked_int("interval", 1, 1, 1 << 20);
  // The full guard stack: handoff CRCs catch in-flight flips, the weight
  // sentinel catches state flips, the non-finite scan backstops both. The
  // norm guard stays opt-in (--norm-window): a flipped exponent usually
  // also trips it, which would double-count detections in the 1:1 ledger.
  o.session.guard.handoff_crc = true;
  o.session.guard.nonfinite_checks = true;
  o.session.guard.weight_interval = 1;
  o.session.guard.norm_window = norm_window;
  o.chaos = &script;
  o.restart_budget =
      cli.checked_int("budget", 2 * incidents + 6, 1, 1 << 20);
  // No hangs are scripted here and every detection is a CRC/sentinel check,
  // not a silence deadline -- so give the watchdog a long leash to keep
  // slow sanitizer builds from false-firing mid-detection.
  o.watchdog.grace_ms = cli.checked_double("grace-ms", 10000.0, 50.0, 1e6);

  std::printf("corrupt: %d step(s), %zu scripted bit flip(s), seed %llu\n",
              steps, script.events.size(),
              static_cast<unsigned long long>(seed));
  supervisor::Supervisor sup(o);
  const supervisor::SupervisorReport report = sup.run();
  print_report(report);
  if (!report.completed) {
    std::fprintf(stderr, "error: corruption soak aborted at step %d: %s\n",
                 report.steps_done, report.abort_reason.c_str());
    return 1;
  }
  const auto caught = report.of_class(supervisor::IncidentClass::Corruption);
  if (caught.size() != script.events.size()) {
    std::fprintf(stderr,
                 "error: %zu bit flip(s) injected but only %zu incident(s) "
                 "classified corruption (an escape or a double-count)\n",
                 script.events.size(), caught.size());
    return 1;
  }
  std::printf("all %zu injected corruption(s) detected and classified "
              "Corruption\n", caught.size());
  const Reference ref = reference_run(cli, steps);
  return check_bit_identical(sup, report, ref);
}

// ------------------------------------------------ unsupervised fault verbs

faults::FaultDistribution dist_from(const util::Cli& cli) {
  faults::FaultDistribution dist;
  dist.straggler_prob = cli.checked_double("straggler-prob", 0.3, 0.0, 1.0);
  dist.slowdown_max = cli.checked_double("slowdown", 2.0, 1.0, 1e6);
  dist.spike_prob = cli.checked_double("spike-prob", 0.1, 0.0, 1.0);
  dist.outage_prob = cli.checked_double("outage-prob", 0.05, 0.0, 1.0);
  return dist;
}

int do_sim(const util::Cli& cli) {
  const std::string model = cli.get("model", "gpt2-345m");
  const int gpus = cli.checked_int("gpus", 4, 1, 1 << 20);
  const int mbs = cli.checked_int("mbs", 32, 1, 1 << 20);
  const long gbs = cli.checked_int("gbs", 512, 1, 1 << 30);
  const auto seed = static_cast<std::uint64_t>(cli.checked_int("seed", 7, 0,
                                                               1 << 30));

  const auto cfg = costmodel::build_model_config(
      costmodel::model_by_name(model), {mbs, 0, true});
  const auto planned = core::auto_plan(cfg, {gpus, gbs, 0, true});
  const core::Schedule& schedule = planned.schedule;
  const int devices = schedule.num_stages;
  const sim::ExecResult nominal = sim::execute(schedule);
  std::printf("%s on %d GPUs: %d stage(s), fault-free iteration %.2f ms\n",
              cfg.spec.name.c_str(), gpus, devices, nominal.iteration_ms);

  // One sampled scenario, replayed in full detail.
  faults::FaultPlan plan = faults::sample_fault_plan(
      dist_from(cli), devices, devices - 1, nominal.iteration_ms, seed);
  if (cli.has("crash-at")) {
    faults::DeviceCrash crash;
    crash.device = cli.checked_int("crash-device", devices / 2, 0, devices - 1);
    crash.at_ms = cli.checked_double("crash-at", nominal.iteration_ms / 2,
                                     0.0, 1e9);
    plan.crashes.push_back(crash);
  }
  sim::ExecOptions exec;
  exec.faults = &plan;
  const sim::ExecResult faulted = sim::execute(schedule, exec);
  std::printf("seed %llu scenario: %zu straggler(s), %zu spike(s), "
              "%zu outage(s), %zu crash(es)\n",
              static_cast<unsigned long long>(seed), plan.stragglers.size(),
              plan.spikes.size(), plan.outages.size(), plan.crashes.size());
  if (faulted.failure.crashed) {
    std::printf("  device %d crashed at %.2f ms: %d op(s) completed, %d "
                "lost, iteration cut at %.2f ms\n",
                faulted.failure.device, faulted.failure.at_ms,
                faulted.failure.completed_ops, faulted.failure.lost_ops,
                faulted.iteration_ms);
  } else {
    std::printf("  iteration %.2f ms (+%.1f%% vs fault-free), %d link "
                "retry(ies)\n",
                faulted.iteration_ms,
                100.0 * (faulted.iteration_ms / nominal.iteration_ms - 1.0),
                faulted.link_retries);
  }

  // Monte-Carlo the straggler distribution over the same schedule.
  faults::RobustnessOptions rob;
  rob.trials = cli.checked_int("trials", 200, 1, 1 << 20);
  rob.seed = seed;
  rob.quantile = cli.checked_double("quantile", 95.0, 0.0, 100.0);
  rob.dist = dist_from(cli);
  const auto report = faults::evaluate_robustness(schedule, {}, rob);
  util::Table t({"trials", "nominal", "mean", "p50", "p95", "p99", "worst"});
  t.add_row({std::to_string(report.trials),
             util::Table::fmt(report.nominal_ms, 2),
             util::Table::fmt(report.mean_ms, 2),
             util::Table::fmt(report.p50_ms, 2),
             util::Table::fmt(report.p95_ms, 2),
             util::Table::fmt(report.p99_ms, 2),
             util::Table::fmt(report.worst_ms, 2)});
  std::printf("%s", t.to_ascii().c_str());
  return 0;
}

int do_robust(const util::Cli& cli) {
  const std::string model = cli.get("model", "gpt2-345m");
  const int stages = cli.checked_int("gpus", 4, 2, 1 << 10);
  const int mbs = cli.checked_int("mbs", 32, 1, 1 << 20);
  const int micro = cli.checked_int(
      "micro-batches", 16, stages, 1 << 20);
  const int threads = cli.checked_int("threads", 1, 0, 4096);

  const auto cfg = costmodel::build_model_config(
      costmodel::model_by_name(model), {mbs, 0, true});
  core::PlannerOptions nominal_opts;
  nominal_opts.threads = threads;
  const auto nominal = core::plan(cfg, stages, micro, nominal_opts);

  core::PlannerOptions robust_opts = nominal_opts;
  robust_opts.robustness.trials = cli.checked_int("trials", 200, 1, 1 << 20);
  robust_opts.robustness.seed =
      static_cast<std::uint64_t>(cli.checked_int("seed", 7, 0, 1 << 30));
  robust_opts.robustness.quantile =
      cli.checked_double("quantile", 95.0, 0.0, 100.0);
  robust_opts.robustness.candidates = cli.checked_int("candidates", 4, 1, 64);
  robust_opts.robustness.dist = dist_from(cli);
  const auto robust = core::plan(cfg, stages, micro, robust_opts);

  std::printf("nominal planner: %s\n",
              core::describe(cfg, nominal.partition).c_str());
  std::printf("robust  planner: %s\n",
              core::describe(cfg, robust.partition).c_str());
  std::printf("robust winner under p%.0f ranking: nominal %.2f ms, p50 %.2f, "
              "p95 %.2f, p99 %.2f (over %d trials)\n",
              robust_opts.robustness.quantile, robust.robustness.nominal_ms,
              robust.robustness.p50_ms, robust.robustness.p95_ms,
              robust.robustness.p99_ms, robust.robustness.trials);
  if (robust.partition == nominal.partition) {
    std::printf("same scheme wins with and without noise -- the nominal "
                "optimum is already robust here\n");
  }
  return 0;
}

int do_kill(const util::Cli& cli) {
  // The CI smoke: kill a stage mid-iteration with *no* recovery layer and
  // require a prompt, typed StageFailure -- never a hang, never a silent
  // wrong answer.
  const model::TinySpec spec = tiny_spec();
  model::TransformerModel piped(spec);
  model::SyntheticCorpus corpus(spec.vocab);
  const int B = 4, m = 6;
  const auto batch = corpus.next_batch(B * m, spec.seq);
  const auto micro =
      model::SyntheticCorpus::split_micro_batches(batch, spec.seq, B);
  faults::FaultPlan plan;
  faults::DeviceCrash crash;
  crash.device = cli.checked_int("crash-device", 1, 0, 2);
  crash.after_ops = cli.checked_int("after-ops", 3, 0, 1 << 20);
  plan.crashes.push_back(crash);

  runtime::PipelineRuntime rt(piped, {2, 3, 3});
  const auto schedule =
      rt.make_schedule(costmodel::ScheduleKind::OneFOneB, m);
  runtime::RunOptions run;
  run.faults = &plan;
  run.recv_deadline_ms = 2000;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    rt.run_iteration(schedule, micro, 1.0 / (B * m * spec.seq), run);
  } catch (const runtime::StageFailure& e) {
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    std::printf("clean StageFailure propagation: kind %s, device %d, "
                "surfaced in %.1f ms (%s)\n",
                runtime::to_string(e.kind()), e.device(), ms, e.what());
    return 0;
  }
  std::fprintf(stderr, "error: crash did not surface as StageFailure\n");
  return 1;
}

/// PosixStorage wrapper that raises SIGKILL the moment the J-th MANIFEST
/// commit-rename is requested: records are on disk, the manifest is not,
/// so the process dies genuinely mid-checkpoint (the crash-consistency
/// protocol's worst moment). The CI smoke runs this, then `--resume`.
class KillAtManifestStorage : public ckpt::Storage {
 public:
  KillAtManifestStorage(ckpt::Storage& inner, int kill_at)
      : inner_(inner), kill_at_(kill_at) {}

  void create_dirs(const std::string& path) override {
    inner_.create_dirs(path);
  }
  void write_file(const std::string& path, std::string bytes) override {
    inner_.write_file(path, std::move(bytes));
  }
  void rename_file(const std::string& from, const std::string& to) override {
    const bool manifest = to.size() >= 8 &&
                          to.compare(to.size() - 8, 8, "MANIFEST") == 0;
    if (manifest && ++manifest_renames_ == kill_at_) {
      std::fprintf(stderr, "killing process during checkpoint commit #%d\n",
                   kill_at_);
      std::fflush(nullptr);
      raise(SIGKILL);
    }
    inner_.rename_file(from, to);
  }
  std::string read_file(const std::string& path) override {
    return inner_.read_file(path);
  }
  bool exists(const std::string& path) override { return inner_.exists(path); }
  std::vector<std::string> list_dir(const std::string& path) override {
    return inner_.list_dir(path);
  }
  void remove_file(const std::string& path) override {
    inner_.remove_file(path);
  }
  void remove_dir(const std::string& path) override {
    inner_.remove_dir(path);
  }

 private:
  ckpt::Storage& inner_;
  int kill_at_ = 0;
  int manifest_renames_ = 0;
};

int do_ckpt(const util::Cli& cli, const std::string& dir) {
  const int iters = cli.checked_int("iters", 8, 1, 1 << 20);
  const int interval = cli.checked_int("interval", 2, 1, 1 << 20);

  runtime::TrainSessionOptions opts;
  opts.spec = tiny_spec();
  opts.counts = {2, 3, 3};
  opts.ckpt_dir = dir;
  opts.ckpt_interval = interval;

  if (cli.has("resume")) {
    // Restart from the newest valid checkpoint (the kill above may have
    // left an uncommitted step directory behind -- the reader must skip it),
    // finish the run, then verify against an uninterrupted golden run.
    ckpt::PosixStorage storage;
    core::ResumeOptions ropt;
    ropt.num_gpus = cli.checked_int("gpus", 0, 0, 8);
    const auto resumed =
        core::resume_from_checkpoint(tiny_config(), storage, dir, ropt);
    for (const auto& c : resumed.candidates) {
      std::printf("candidate step %d: %s\n", c.step,
                  c.valid ? "valid" : c.reason.c_str());
    }
    std::string counts;
    for (int c : resumed.counts) {
      if (!counts.empty()) counts += " ";
      counts += std::to_string(c);
    }
    std::printf("resuming at step %d on %zu device(s) (partition [%s])%s\n",
                resumed.state.step, resumed.counts.size(), counts.c_str(),
                resumed.resharded ? " -- resharded" : "");

    runtime::TrainSessionOptions sopts = opts;
    sopts.counts = resumed.counts;
    sopts.ckpt_dir.clear();  // the verification leg does not checkpoint
    sopts.ckpt_interval = 0;
    runtime::TrainSession session(sopts, resumed.state);
    const int resume_step = session.iteration();
    while (session.iteration() < iters) session.step();

    runtime::TrainSessionOptions gopts = opts;
    gopts.ckpt_dir.clear();
    gopts.ckpt_interval = 0;
    runtime::TrainSession golden(gopts);
    for (int i = 0; i < iters; ++i) golden.step();

    const auto got = session.capture();
    const auto want = golden.capture();
    if (!resumed.resharded) {
      // Same partition: the continuation must be bit-identical.
      for (int i = resume_step; i < iters; ++i) {
        const double a = session.losses()[static_cast<std::size_t>(
            i - resume_step)];
        const double b = golden.losses()[static_cast<std::size_t>(i)];
        if (a != b) {
          std::fprintf(stderr,
                       "error: loss at step %d diverged (%.17g vs %.17g)\n",
                       i + 1, a, b);
          return 1;
        }
        std::printf("step %d loss %.6f == uninterrupted %.6f\n", i + 1, a, b);
      }
      if (got.blocks != want.blocks || got.data_rng != want.data_rng ||
          got.adam_t != want.adam_t) {
        std::fprintf(stderr, "error: final state diverged from the "
                             "uninterrupted run\n");
        return 1;
      }
    } else {
      // Elastic: same math, different accumulation order.
      const double diff = max_param_diff(got, want);
      std::printf("elastic resume: max param diff vs uninterrupted run "
                  "%.3g\n", diff);
      if (diff > 1e-4) {
        std::fprintf(stderr, "error: resharded resume diverged\n");
        return 1;
      }
    }
    std::printf("resumed trajectory matches uninterrupted run\n");
    return 0;
  }

  ckpt::PosixStorage posix;
  const int kill_at = cli.checked_int("kill-at", 0, 0, 1 << 20);
  KillAtManifestStorage killer(posix, kill_at);
  if (kill_at > 0) opts.storage = &killer;

  runtime::TrainSession session(opts);
  for (int i = 0; i < iters; ++i) session.step();
  std::printf("ran %d iteration(s), wrote %d checkpoint(s) under %s "
              "(%d failure(s)), final loss %.6f\n",
              session.iteration(), session.checkpoints_written(), dir.c_str(),
              session.checkpoint_failures(), session.losses().back());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const char* verbs = "soak|hang|degrade|corrupt|ckpt|sim|robust|kill";
  if (cli.positional().empty()) {
    std::fprintf(stderr, "usage: %s %s [--dir PATH] [flags]\n", argv[0],
                 verbs);
    return 2;
  }
  const std::string verb = cli.positional()[0];
  const bool supervised = verb == "soak" || verb == "hang" ||
                          verb == "degrade" || verb == "corrupt";
  try {
    if (verb == "sim") return do_sim(cli);
    if (verb == "robust") return do_robust(cli);
    if (verb == "kill") return do_kill(cli);
    if (!supervised && verb != "ckpt") {
      std::fprintf(stderr, "error: unknown verb '%s' (expected %s)\n",
                   verb.c_str(), verbs);
      return 2;
    }
    // Only the verbs that write checkpoints need a directory.
    const std::string dir = cli.get("dir", "");
    if (dir.empty()) {
      std::fprintf(stderr, "error: %s needs --dir PATH\n", verb.c_str());
      return 2;
    }
    // ckpt --resume reads what an earlier (killed) run left behind.
    if (verb == "ckpt") return do_ckpt(cli, dir);
    // Each supervised run owns its checkpoint directory: stale checkpoints
    // from a past soak would otherwise change what a restore finds.
    std::filesystem::remove_all(dir);
    if (verb == "soak") return do_soak(cli, dir);
    if (verb == "hang") return do_hang(cli, dir);
    if (verb == "degrade") return do_degrade(cli, dir);
    return do_corrupt(cli, dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
