#include "core/resume.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "util/logging.h"

namespace autopipe::core {

std::vector<int> resume_partition(const ModelConfig& config,
                                  AutoPipeOptions plan, int num_gpus,
                                  const std::vector<int>& preferred) {
  if (num_gpus < 1) {
    throw std::invalid_argument("resume_partition: need at least one device");
  }
  if (!preferred.empty()) {
    const bool shaped =
        static_cast<int>(preferred.size()) == num_gpus &&
        std::accumulate(preferred.begin(), preferred.end(), 0) ==
            config.num_blocks() &&
        std::all_of(preferred.begin(), preferred.end(),
                    [](int c) { return c >= 1; });
    if (shaped) return preferred;
    AP_LOG(warn) << "resume_partition: preferred partition is ill-formed for "
                 << num_gpus << " device(s); planning locally";
  }
  plan.num_gpus = num_gpus;
  plan.forced_stages = num_gpus;  // pipeline-only: depth = cluster size
  return auto_plan(config, plan).plan.partition.counts;
}

ResumeResult resume_from_checkpoint(const ModelConfig& config,
                                    ckpt::Storage& storage,
                                    const std::string& dir,
                                    const ResumeOptions& options) {
  ckpt::CheckpointReader reader(storage, dir);
  ckpt::RestoreResult restored =
      reader.restore({.require_verified = options.require_verified});

  ResumeResult result;
  result.state = std::move(restored.state);
  result.checkpoint_dir = restored.dir;
  result.candidates = std::move(restored.candidates);

  const int blocks = std::accumulate(result.state.counts.begin(),
                                     result.state.counts.end(), 0);
  if (blocks != config.num_blocks()) {
    throw ckpt::CkptError(
        ckpt::CkptErrorKind::Mismatch,
        "checkpoint covers " + std::to_string(blocks) +
            " block(s), config describes " +
            std::to_string(config.num_blocks()));
  }

  const int saved_devices = static_cast<int>(result.state.counts.size());
  const int target = options.num_gpus > 0 ? options.num_gpus : saved_devices;
  if (target == saved_devices) {
    // Same cluster: reuse the checkpointed scheme verbatim so the resumed
    // pipeline is shaped exactly like the interrupted one.
    result.counts = result.state.counts;
    return result;
  }

  // Elastic path: re-plan for the new device count.
  const auto t0 = std::chrono::steady_clock::now();
  result.counts = resume_partition(config, options.plan, target);
  result.replan_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  result.resharded = true;
  AP_LOG(info) << "elastic resume: step " << result.state.step << " from "
               << saved_devices << " -> " << target << " device(s) in "
               << result.replan_ms << " ms";
  return result;
}

}  // namespace autopipe::core
