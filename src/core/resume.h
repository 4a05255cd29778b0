// Elastic resume: restart training from a durable checkpoint, on the same
// cluster or a different one (DESIGN.md §7).
//
// resume_from_checkpoint loads the newest valid checkpoint (through the
// ckpt reader's crash-consistency scan) and decides the partition the
// resumed run executes on:
//
//   same device count  -- the checkpointed partition is reused verbatim, so
//     the resumed pipeline is shaped exactly like the interrupted one and
//     the continuation is bit-identical to the uninterrupted run;
//   different count (N-1 after losing a device, N+1 after adding one) -- the
//     Planner re-partitions the model for the new count (resume_partition:
//     pipeline-only, forced depth = device count), and the
//     checkpointed per-block state is resharded onto the new stages. Since
//     checkpoints store state per *block* and stages are just contiguous
//     block ranges, resharding is a pure re-grouping -- no state is
//     approximated, and the resumed run's gradients stay exact.
#pragma once

#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/autopipe.h"

namespace autopipe::core {

struct ResumeOptions {
  /// Device count to resume on; 0 = whatever the checkpoint was written on.
  int num_gpus = 0;
  /// Planner knobs used only when resharding (num_gpus/forced_stages are
  /// overwritten with the target count).
  AutoPipeOptions plan;
  /// Accept only checkpoints stamped verified-clean by the weight guard
  /// (ckpt::RestoreOptions) -- the supervisor's corruption rung.
  bool require_verified = false;
};

struct ResumeResult {
  ckpt::TrainState state;
  /// Partition for the resumed runtime: the checkpointed counts (same-N) or
  /// a freshly planned scheme (resharded).
  std::vector<int> counts;
  bool resharded = false;
  double replan_ms = 0;        ///< wall-clock spent re-planning (0 if not)
  std::string checkpoint_dir;  ///< winning step directory
  /// Candidates the reader examined, newest first (restore diagnostics).
  std::vector<ckpt::CandidateReport> candidates;
};

/// The partition a run continues on over `num_gpus` devices after its
/// device count changed: `preferred` when it is well-formed (num_gpus
/// stages of >= 1 block covering config's blocks -- e.g. an external plan
/// oracle's answer), otherwise the Planner's pipeline-only plan (forced
/// depth = num_gpus). Elastic resume and the supervisor's degraded replan
/// both decide here. Throws std::invalid_argument when num_gpus < 1 and
/// std::runtime_error when no feasible plan fits.
std::vector<int> resume_partition(const ModelConfig& config,
                                  AutoPipeOptions plan, int num_gpus,
                                  const std::vector<int>& preferred = {});

/// Restores from the newest valid checkpoint under `dir`. Throws
/// ckpt::CkptError (typed: NotFound/Corrupt/Version) when nothing restorable
/// exists, CkptError(Mismatch) when the checkpoint does not describe
/// `config`'s block array, and std::runtime_error when no feasible plan
/// fits the requested device count.
ResumeResult resume_from_checkpoint(const ModelConfig& config,
                                    ckpt::Storage& storage,
                                    const std::string& dir,
                                    const ResumeOptions& options);

}  // namespace autopipe::core
