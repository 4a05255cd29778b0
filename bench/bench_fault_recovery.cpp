// Fault-recovery benchmark (EXPERIMENTS.md "Fault injection and recovery").
//
// Emits one JSON line per (fault kind, seed) to stdout:
//
//   straggler / spike / outage  -- Monte-Carlo of a planned GPT-2 345M 1F1B
//     schedule on the discrete-event executor under a distribution that
//     injects only that kind; p50/p95/p99 are iteration-time percentiles
//     over the trials and recovery_ms is 0 (nothing fails permanently).
//
// Runtime incidents (transient escalation, crash) recover through the
// supervisor; bench_supervisor_mttr measures them.
//
// Flags: --trials N (sim Monte-Carlo trials, default 200), --seeds N
// (default 5), --quiet.
#include <cstdio>
#include <exception>

#include "common.h"
#include "core/autopipe.h"
#include "core/planner.h"
#include "core/schedule.h"
#include "faults/robustness.h"
#include "util/cli.h"

namespace {

using namespace autopipe;

void emit_sim_line(const char* kind, std::uint64_t seed,
                   const faults::RobustnessReport& r) {
  std::printf(
      "{\"kind\":\"%s\",\"seed\":%llu,\"trials\":%d,\"nominal_ms\":%.3f,"
      "\"recovery_ms\":0.0,\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,"
      "\"worst_ms\":%.3f,\"link_retries\":%d}\n",
      kind, static_cast<unsigned long long>(seed), r.trials, r.nominal_ms,
      r.p50_ms, r.p95_ms, r.p99_ms, r.worst_ms, r.link_retries);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace autopipe;
  const util::Cli cli(argc, argv);
  bench::emit_metadata("fault_recovery");
  const int trials = cli.checked_int("trials", 200, 1, 1 << 20);
  const int seeds = cli.checked_int("seeds", 5, 1, 1 << 12);

  // Sim substrate: a planned 4-stage GPT-2 345M pipeline, m = 16.
  const auto cfg = costmodel::build_model_config(
      costmodel::model_by_name("gpt2-345m"), {4, 0, true});
  const int stages = 4, m = 16;
  const auto planned = core::plan(cfg, stages, m);
  const auto costs = core::stage_costs(cfg, planned.partition);
  const core::Schedule schedule = core::build_1f1b(costs, m, cfg.comm_ms);

  struct SimKind {
    const char* name;
    faults::FaultDistribution dist;
  };
  faults::FaultDistribution straggler_only;
  straggler_only.spike_prob = 0;
  faults::FaultDistribution spike_only;
  spike_only.straggler_prob = 0;
  spike_only.spike_prob = 0.5;
  faults::FaultDistribution outage_only;
  outage_only.straggler_prob = 0;
  outage_only.spike_prob = 0;
  outage_only.outage_prob = 0.5;
  outage_only.retry_backoff_ms = 2.0;
  const SimKind sim_kinds[] = {{"straggler", straggler_only},
                               {"spike", spike_only},
                               {"outage", outage_only}};
  for (const SimKind& k : sim_kinds) {
    for (int s = 0; s < seeds; ++s) {
      faults::RobustnessOptions rob;
      rob.trials = trials;
      rob.seed = static_cast<std::uint64_t>(1000 * (s + 1));
      rob.dist = k.dist;
      emit_sim_line(k.name, rob.seed,
                    faults::evaluate_robustness(schedule, {}, rob));
    }
  }

  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
