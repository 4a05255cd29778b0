// Repository benchmark: command line, metadata and the result line.
//
//   perfbench --workload train-gemm|train-deep|plan-cold --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints a metadata line (bench/common.h emit_metadata), informational JSON
// lines, and as its last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// --trace 0 reports the end-to-end metrics of the workload. --trace 1 runs
// every per-layer probe, then the workload's loop with traced and untraced
// blocks interleaved, and reports the per-layer metrics plus the tracing
// overhead; the recorded spans go to --trace-out as a Chrome trace.
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "bench/common.h"
#include "report.h"
#include "util/cli.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const autopipe::util::Cli cli(argc, argv);
    RunArgs args;
    args.workload = cli.get("workload", "");
    const std::string seed = cli.get("seed", "1");
    if (seed.empty() || seed.size() > 18 ||
        seed.find_first_not_of("0123456789") != std::string::npos) {
      std::fprintf(stderr, "error: --seed must be a non-negative integer\n");
      return 2;
    }
    args.seed = std::stoull(seed);
    args.seconds = cli.checked_int("seconds", 10, 1, 600);
    args.trace = cli.checked_int("trace", 0, 0, 1) == 1;
    const std::string trace_out = cli.get("trace-out", "");

    int threads = 0;
    if (args.workload == "train-gemm" || args.workload == "train-deep") {
      threads = training_threads(args.workload);
    } else if (args.workload == "plan-cold") {
      threads = 2;  // client thread + one service worker, one busy at a time
    } else {
      std::fprintf(stderr,
                   "error: --workload must be train-gemm, train-deep or "
                   "plan-cold\n");
      return 2;
    }
    const int nproc = static_cast<int>(std::thread::hardware_concurrency());
    autopipe::bench::emit_metadata("perfbench");
    print_info("{\"workload\":\"" + args.workload +
               "\",\"seed\":" + std::to_string(args.seed) +
               ",\"seconds\":" + std::to_string(args.seconds) +
               ",\"trace\":" + (args.trace ? "1" : "0") +
               ",\"threads\":" + std::to_string(threads) +
               ",\"nproc\":" + std::to_string(nproc) + "}");
    if (threads > nproc) {
      std::fprintf(stderr, "error: %s needs %d threads, host has %d\n",
                   args.workload.c_str(), threads, nproc);
      return 2;
    }

    Tracer tracer;
    Result result;
    if (args.trace) {
      // Probes first, so the arena high-water mark is the deep model's.
      probe_train_deep(args.seed, tracer, result);
      probe_gemm_ops(args.seed, tracer, result);
      probe_planning(args.seed, tracer, result);
    }
    Tracer* t = args.trace ? &tracer : nullptr;
    Result run = args.workload == "plan-cold" ? run_plan_cold(args, t)
                                              : run_training(args, t);
    result.attempted += run.attempted;
    result.failed += run.failed;
    result.metrics.insert(result.metrics.end(), run.metrics.begin(),
                          run.metrics.end());
    if (args.trace && !trace_out.empty()) {
      if (!tracer.write_chrome_trace(trace_out)) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
        return 1;
      }
      print_info("{\"trace_out\":\"" + trace_out +
                 "\",\"spans\":" + std::to_string(tracer.size()) + "}");
    }
    std::printf("%s\n", result.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
