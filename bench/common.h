// Shared helpers for the benchmark harnesses: the provenance line every
// harness prints first, a zoo model's cost model at a micro-batch size, and
// the executor options of an "actual run" (RTX-3090 launch overhead).
#pragma once

#include <cstdio>
#include <string>
#include <thread>

#include "core/autopipe.h"
#include "core/planner.h"
#include "core/slicer.h"
#include "sim/executor.h"
#include "util/table.h"

// Build provenance, injected by bench/CMakeLists.txt so every harness can
// stamp its output; "unknown" outside a git checkout / multi-config build.
#ifndef AUTOPIPE_GIT_SHA
#define AUTOPIPE_GIT_SHA "unknown"
#endif
#ifndef AUTOPIPE_BUILD_TYPE
#define AUTOPIPE_BUILD_TYPE "unknown"
#endif

namespace autopipe::bench {

/// One JSON metadata line per harness run -- git SHA, build type and
/// hardware thread count -- so archived bench output stays attributable to
/// the binary that produced it.
inline void emit_metadata(const std::string& bench_name) {
  std::printf(
      "{\"bench\":\"%s\",\"meta\":1,\"git_sha\":\"%s\","
      "\"build_type\":\"%s\",\"hw_threads\":%u}\n",
      bench_name.c_str(), AUTOPIPE_GIT_SHA, AUTOPIPE_BUILD_TYPE,
      std::thread::hardware_concurrency());
}

inline core::ModelConfig config_for(const std::string& model, int mbs) {
  return costmodel::build_model_config(costmodel::model_by_name(model),
                                       {mbs, 0, true});
}

inline sim::ExecOptions actual_run_options(const core::ModelConfig& cfg) {
  sim::ExecOptions opts;
  opts.per_op_overhead_ms = cfg.device.kernel_launch_ms;
  return opts;
}

}  // namespace autopipe::bench
