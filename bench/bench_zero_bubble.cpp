// Zero-bubble (split-backward) schedules vs AutoPipe's sliced 1F1B.
//
//   ./bench_zero_bubble [--model gpt2-1.3b] [--micro-batch 4]
//                       [--stages 8] [--micro-batches 16]
//                       [--assert-speedup 0]
//
// For each pipeline depth (the --stages value plus a sweep of shallower
// depths) the harness plans the partition, prices its per-stage costs --
// including the analytic B/W split -- and times three schedules under
// "actual run" conditions (kernel-launch overhead, discrete-event
// executor): plain 1F1B, sliced 1F1B (the Slicer's choice), and the
// zero-bubble schedule whose deferred weight ops fill the bubbles. One
// JSON line per (depth, schedule) plus the metadata line.
//
// --assert-speedup S exits non-zero unless zero-bubble is at least S times
// the sliced-1F1B throughput at the deepest depth; CI runs S=1.0 on an
// 8-stage pipeline as a smoke check that the win never regresses to a loss.
#include <cstdio>
#include <string>

#include "common.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace autopipe;
  using namespace autopipe::bench;
  const util::Cli cli(argc, argv);
  const std::string model = cli.get("model", "gpt2-1.3b");
  const int mbs = cli.checked_int("micro-batch", 4, 1, 64);
  const int max_stages = cli.checked_int("stages", 8, 2, 64);
  const int m = cli.checked_int("micro-batches", 2 * max_stages, 2, 256);
  const double assert_speedup =
      cli.checked_double("assert-speedup", 0.0, 0.0, 100.0);

  emit_metadata("zero_bubble");

  const auto cfg = config_for(model, mbs);
  const auto opts = actual_run_options(cfg);

  double deep_sliced = 0, deep_zb = 0;
  for (int depth = 2; depth <= max_stages; depth *= 2) {
    const int micro = std::max(m, depth);
    const auto planned = core::plan(cfg, depth, micro);
    const auto costs = core::stage_costs(cfg, planned.partition);

    const double plain =
        sim::execute(core::build_1f1b(costs, micro, cfg.comm_ms), opts)
            .iteration_ms;
    const auto slicing = core::solve_slicing(costs, cfg.comm_ms, micro);
    const double sliced =
        sim::execute(core::build_sliced_1f1b(costs, micro, cfg.comm_ms,
                                             slicing.sliced_micro_batches),
                     opts)
            .iteration_ms;
    const auto zb_schedule = core::make_zero_bubble(costs, micro, cfg.comm_ms);
    const double zb = sim::execute(zb_schedule, opts).iteration_ms;
    // The analytic evaluator and the executor time the same schedule graph,
    // so with no options the executor must add nothing to it -- the same
    // invariant the fuzz suite enforces; here it guards execute()'s
    // option-free arithmetic on the bench's own schedules.
    const double zb_eval = core::evaluate_schedule(zb_schedule).iteration_ms;
    const double zb_exec = sim::execute(zb_schedule).iteration_ms;

    std::printf(
        "{\"bench\":\"zero_bubble\",\"model\":\"%s\",\"stages\":%d,"
        "\"micro_batches\":%d,\"plain_1f1b_ms\":%.3f,\"sliced_1f1b_ms\":%.3f,"
        "\"zero_bubble_ms\":%.3f,\"speedup_vs_sliced\":%.4f,"
        "\"eval_exec_agree\":%s}\n",
        model.c_str(), depth, micro, plain, sliced, zb, sliced / zb,
        zb_eval == zb_exec ? "true" : "false");
    if (zb_eval != zb_exec) {
      std::fprintf(stderr,
                   "error: analytic eval %.6f != executor %.6f at depth %d\n",
                   zb_eval, zb_exec, depth);
      return 1;
    }
    if (depth == max_stages || depth * 2 > max_stages) {
      deep_sliced = sliced;
      deep_zb = zb;
    }
  }

  if (assert_speedup > 0.0) {
    const double speedup = deep_sliced / deep_zb;
    if (!(speedup >= assert_speedup)) {
      std::fprintf(stderr,
                   "error: zero-bubble speedup %.3fx over sliced 1F1B is "
                   "below the required %.3fx\n",
                   speedup, assert_speedup);
      return 1;
    }
    std::printf("{\"bench\":\"zero_bubble\",\"assert_speedup\":%.2f,"
                "\"measured\":%.4f,\"ok\":true}\n",
                assert_speedup, deep_sliced / deep_zb);
  }
  return 0;
}
