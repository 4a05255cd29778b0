// The benchmark's workloads and per-layer probes.
//
// A workload is a closed loop driven from the benchmark's own thread: the
// next iteration or request starts when the previous one returned. Every
// input is generated from the run's seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Threads a training workload computes on: stage threads plus kernel-pool
/// workers (the driving thread blocks in run_iteration meanwhile).
int training_threads(const std::string& workload);

/// Set-up (repeated, median reported), correctness checks and the timed
/// window of train-gemm / train-deep. Untraced runs add the end-to-end
/// metrics. Traced runs alternate untraced and traced blocks of the same
/// loop and add the tracing-overhead metrics.
Result run_training(const RunArgs& args, Tracer* tracer);
/// The same for plan-cold.
Result run_plan_cold(const RunArgs& args, Tracer* tracer);

/// Per-layer probes, run by every traced run. Each times calls into one
/// layer's public functions at the configuration of the workload that layer
/// serves, recording a span per call, and appends its metrics to `out`.
void probe_train_deep(std::uint64_t seed, Tracer& tracer, Result& out);
void probe_gemm_ops(std::uint64_t seed, Tracer& tracer, Result& out);
void probe_planning(std::uint64_t seed, Tracer& tracer, Result& out);

}  // namespace perfbench
