#include "runtime/pipeline_runtime.h"

#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "faults/sdc.h"
#include "guard/guard.h"
#include "runtime/channel.h"
#include "runtime/stage_failure.h"
#include "runtime/stage_worker.h"

namespace autopipe::runtime {

PipelineRuntime::PipelineRuntime(model::TransformerModel& model,
                                 std::vector<int> counts, int chunks)
    : model_(model), counts_(std::move(counts)), chunks_(chunks) {
  if (chunks_ < 1 || counts_.empty() ||
      static_cast<int>(counts_.size()) % chunks_ != 0) {
    throw std::invalid_argument("global stage count must be devices*chunks");
  }
  const int total = std::accumulate(counts_.begin(), counts_.end(), 0);
  if (total != model_.num_blocks()) {
    throw std::invalid_argument("partition does not cover the model blocks");
  }
  for (int c : counts_) {
    if (c < 1) throw std::invalid_argument("empty pipeline stage");
  }
}

core::Schedule PipelineRuntime::make_schedule(costmodel::ScheduleKind kind,
                                              int micro_batches,
                                              int sliced) const {
  // Neutral 1:2 fwd:bwd costs -- the runtime only needs the op *order*, so
  // every device gets the same placeholder StageCost. build_schedule owns
  // the kind dispatch (shared with the supervisor and the planner).
  return core::build_schedule(
      kind,
      std::vector<core::StageCost>(num_devices(), core::StageCost{1.0, 2.0}),
      micro_batches, 0.1, {sliced, chunks_});
}

IterationResult PipelineRuntime::run_iteration(
    const core::Schedule& schedule,
    const std::vector<model::Batch>& micro_batches, double loss_scale,
    const RunOptions& options) {
  const int devices = num_devices();
  if (schedule.num_stages != devices || schedule.chunks != chunks_) {
    throw std::invalid_argument("schedule shape mismatch");
  }
  if (schedule.num_micro_batches != static_cast<int>(micro_batches.size())) {
    throw std::invalid_argument("schedule micro-batch count mismatch");
  }
  core::validate(schedule);
  if (schedule.kind == costmodel::ScheduleKind::ZeroBubble &&
      !options.recompute) {
    throw std::invalid_argument(
        "zero-bubble schedules require recompute=true (the split backward "
        "re-derives intermediates from stashed block inputs)");
  }

  if (options.faults != nullptr && !options.faults->empty()) {
    options.faults->validate(devices, devices * chunks_ - 1);
  }

  const int global_stages = devices * chunks_;
  std::vector<Channel> forward_channels(std::max(0, global_stages - 1));
  std::vector<Channel> backward_channels(std::max(0, global_stages - 1));
  std::vector<double> losses(devices, 0.0);
  std::vector<std::string> errors(devices);
  std::vector<std::optional<FailureKind>> error_kinds(devices);
  std::vector<int> retries(devices, 0);
  // One worker's death poisons every channel so no peer can block past its
  // next wait -- the failure cascades as StageFailure(PeerClosed) instead of
  // the pre-fault-subsystem deadlock. When the caller supplied a cancel
  // token, poisoning also cancels it: a peer parked on the token (an
  // injected hang, or a sliced receive) wakes immediately instead of riding
  // out its recv deadline.
  const auto poison_all = [&](const std::string& reason) {
    for (auto& ch : forward_channels) ch.close(reason);
    for (auto& ch : backward_channels) ch.close(reason);
    if (options.cancel != nullptr) options.cancel->cancel(reason);
  };
  if (options.health != nullptr) options.health->reset(devices);

  // One handoff ledger per iteration: producers stamp boundary-tensor CRCs,
  // consumers verify-and-consume them (guard/guard.h). Scoped to the
  // iteration so a failed run can't leak stale stamps into the retry.
  guard::HandoffLedger ledger;
  const bool handoff_guard =
      options.guard != nullptr && options.guard->handoff_crc;

  // Global stage g starts at block prefix[g]; device d's chunk c covers
  // global stage c*devices + d.
  std::vector<int> prefix(global_stages, 0);
  for (int g = 1; g < global_stages; ++g) {
    prefix[g] = prefix[g - 1] + counts_[g - 1];
  }

  std::vector<std::thread> workers;
  workers.reserve(devices);
  for (int d = 0; d < devices; ++d) {
    StageContext ctx;
    ctx.device = d;
    ctx.num_devices = devices;
    ctx.chunks = chunks_;
    for (int c = 0; c < chunks_; ++c) {
      const int g = c * devices + d;
      ctx.blocks.push_back({prefix[g], counts_[g]});
    }
    ctx.model = &model_;
    ctx.schedule = &schedule;
    ctx.micro_batches = &micro_batches;
    ctx.loss_scale = loss_scale;
    ctx.seq_len = model_.spec().seq;
    ctx.run = &options;
    ctx.forward_channels = &forward_channels;
    ctx.backward_channels = &backward_channels;
    ctx.ledger = handoff_guard ? &ledger : nullptr;
    ctx.transient_retries = &retries[d];
    workers.emplace_back([ctx = std::move(ctx), d, &losses, &errors,
                          &error_kinds, &poison_all, health = options.health] {
      try {
        losses[d] = run_stage(ctx);
        if (health != nullptr) health->mark(d, DeviceHealth::Done);
      } catch (const StageFailure& e) {
        error_kinds[d] = e.kind();
        errors[d] = e.what();
        if (health != nullptr) health->mark(d, DeviceHealth::Failed);
        poison_all("device " + std::to_string(d) + ": " + e.what());
      } catch (const std::exception& e) {
        error_kinds[d] = FailureKind::Crash;
        errors[d] = e.what();
        if (health != nullptr) health->mark(d, DeviceHealth::Failed);
        poison_all("device " + std::to_string(d) + ": " + e.what());
      }
    });
  }
  for (auto& w : workers) w.join();
  // Report the origin failure, not the echoes it caused.
  const int origin = origin_device(error_kinds);
  if (origin >= 0) {
    throw StageFailure(*error_kinds[origin], origin,
                       "device " + std::to_string(origin) +
                           " failed: " + errors[origin]);
  }
  for (const auto& ch : forward_channels) {
    if (ch.pending() != 0) throw std::logic_error("leaked forward messages");
  }
  for (const auto& ch : backward_channels) {
    if (ch.pending() != 0) throw std::logic_error("leaked backward messages");
  }
  // Every stamp a clean iteration produced must have been consumed by its
  // receiver; a leak means a send was verified against the wrong key.
  if (handoff_guard && ledger.pending() != 0) {
    throw std::logic_error("leaked handoff CRC stamps");
  }

  IterationResult result;
  for (double l : losses) result.loss += l;
  for (int r : retries) result.transient_retries += r;
  return result;
}

}  // namespace autopipe::runtime
