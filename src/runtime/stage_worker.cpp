#include "runtime/stage_worker.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "faults/sdc.h"
#include "guard/guard.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/stage_failure.h"
#include "util/backoff.h"

namespace autopipe::runtime {

model::Batch slice_half(const model::Batch& whole, int seq_len, int half) {
  if (half < 0) return whole;
  const int samples = whole.ids.dim(0) / seq_len;
  if (samples < 2) {
    throw std::invalid_argument("cannot slice a single-sample micro-batch");
  }
  const int first_rows = (samples / 2) * seq_len;
  model::Batch out;
  auto [head, tail] = whole.ids.split_rows(first_rows);
  if (half == 0) {
    out.ids = std::move(head);
    out.targets.assign(whole.targets.begin(), whole.targets.begin() + first_rows);
  } else {
    out.ids = std::move(tail);
    out.targets.assign(whole.targets.begin() + first_rows, whole.targets.end());
  }
  return out;
}

namespace {

[[noreturn]] void throw_cancelled(const StageContext& ctx) {
  throw StageFailure(FailureKind::Timeout, ctx.device,
                     "device " + std::to_string(ctx.device) +
                         " cancelled: " + ctx.run->cancel->reason());
}

/// Fault gate executed before each schedule op: crash, hang, straggler and
/// transient triggers, in escalating order of how much help the worker
/// needs. A transient fault burns `failures` attempts with exponential
/// backoff (util::Backoff); within the retry budget the op then executes
/// normally (the fault was absorbed in place), beyond it the worker
/// escalates to a typed StageFailure so the supervisor's ladder takes over.
/// A hang makes no progress at all -- it parks on the iteration's
/// CancelToken (or, lacking one, on the recv deadline) until an external
/// watchdog aborts the iteration.
void check_faults_before_op(const StageContext& ctx, int op_index) {
  const RunOptions& run = *ctx.run;
  if (run.cancel != nullptr && run.cancel->cancelled()) throw_cancelled(ctx);
  const faults::FaultPlan* plan = run.faults;
  if (plan == nullptr || plan->empty()) return;
  if (plan->crashes_before_op(ctx.device, op_index)) {
    throw StageFailure(FailureKind::Crash, ctx.device,
                       "device " + std::to_string(ctx.device) +
                           " crashed before op " + std::to_string(op_index));
  }
  if (plan->hangs_before_op(ctx.device, op_index)) {
    if (run.cancel != nullptr) {
      run.cancel->wait();
      throw_cancelled(ctx);
    }
    // No token to park on: the hang is bounded by the recv deadline so an
    // unsupervised run still terminates (as its peers' receives do).
    const double bound = run.recv_deadline_ms > 0 ? run.recv_deadline_ms
                                                  : 30000.0;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(bound));
    throw StageFailure(FailureKind::Timeout, ctx.device,
                       "device " + std::to_string(ctx.device) +
                           " hung before op " + std::to_string(op_index));
  }
  const double slow_ms = plan->slow_delay_ms(ctx.device, op_index);
  if (slow_ms > 0) {
    // A straggler burns real wall-clock time but stays cancellable: the
    // delay is spent parked on the token when one is present.
    if (run.cancel != nullptr) {
      if (run.cancel->wait_for_ms(slow_ms)) throw_cancelled(ctx);
    } else {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(slow_ms));
    }
  }
  if (const faults::TransientOpFault* fault =
          plan->transient_for(ctx.device, op_index)) {
    if (fault->failures > run.max_transient_retries) {
      throw StageFailure(
          FailureKind::Transient, ctx.device,
          "device " + std::to_string(ctx.device) + " op " +
              std::to_string(op_index) + " failed " +
              std::to_string(fault->failures) + " times (retry budget " +
              std::to_string(run.max_transient_retries) + ")");
    }
    util::BackoffOptions backoff_opts;
    backoff_opts.base_ms = run.backoff_base_ms;
    util::Backoff backoff(backoff_opts);
    for (int attempt = 0; attempt < fault->failures; ++attempt) {
      util::Backoff::sleep_for_ms(backoff.next_ms());
      if (ctx.transient_retries) ++*ctx.transient_retries;
    }
  }
}

/// Producer-side guard pass just before a boundary send: stamp the tensor's
/// CRC into the ledger, then let the chaos injector flip a bit. Injection
/// strikes strictly *after* the stamp -- it models corruption in transit,
/// which is exactly what the consumer's verify must catch.
void stamp_outgoing(const StageContext& ctx, bool backward, int boundary,
                    const core::ScheduleOp& op, model::Tensor& x) {
  const RunOptions& run = *ctx.run;
  if (run.guard != nullptr && run.guard->handoff_crc &&
      ctx.ledger != nullptr) {
    ctx.ledger->stamp(
        guard::handoff_key(backward, boundary, op.micro_batch, op.half),
        guard::tensor_crc(x));
  }
  if (run.sdc != nullptr) {
    run.sdc->maybe_corrupt(backward ? faults::SdcTarget::Gradient
                                    : faults::SdcTarget::Activation,
                           boundary, op.micro_batch, x);
  }
}

/// Consumer-side guard pass over a tensor just received across `boundary`:
/// verify the producer's stamp, optionally scan for non-finite values. Both
/// passes only read the tensor's bytes.
void verify_received(const StageContext& ctx, bool backward, int boundary,
                     const core::ScheduleOp& op, const model::Tensor& x) {
  const RunOptions& run = *ctx.run;
  if (run.guard == nullptr) return;
  const char* what = backward ? "gradient" : "activation";
  if (run.guard->handoff_crc && ctx.ledger != nullptr) {
    const std::optional<std::uint32_t> want = ctx.ledger->take(
        guard::handoff_key(backward, boundary, op.micro_batch, op.half));
    const std::uint32_t got = guard::tensor_crc(x);
    if (run.guard_counters != nullptr) ++run.guard_counters->handoff_checks;
    if (!want.has_value() || *want != got) {
      if (run.guard_counters != nullptr) {
        ++run.guard_counters->handoff_failures;
      }
      throw StageFailure(
          FailureKind::Corruption, ctx.device,
          std::string(what) + " handoff CRC mismatch at boundary " +
              std::to_string(boundary) + " micro-batch " +
              std::to_string(op.micro_batch) + " (device " +
              std::to_string(ctx.device) + ")");
    }
  }
  if (run.guard->nonfinite_checks && !guard::tensor_finite(x)) {
    if (run.guard_counters != nullptr) {
      ++run.guard_counters->nonfinite_failures;
    }
    throw StageFailure(FailureKind::Corruption, ctx.device,
                       std::string("non-finite ") + what +
                           " received at boundary " +
                           std::to_string(boundary) + " micro-batch " +
                           std::to_string(op.micro_batch));
  }
}

}  // namespace

double run_stage(const StageContext& ctx) {
  const RunOptions& run = *ctx.run;
  if (static_cast<int>(ctx.blocks.size()) != ctx.chunks) {
    throw std::invalid_argument("block ranges do not match chunk count");
  }
  const int global_stages = ctx.num_devices * ctx.chunks;
  double loss = 0;
  if (run.health != nullptr) {
    run.health->mark(ctx.device, DeviceHealth::Running);
  }
  const auto receive = [&ctx, &run](Channel& ch, const MessageTag& tag) {
    if (run.cancel == nullptr) {
      return run.recv_deadline_ms > 0 ? ch.recv_for(tag, run.recv_deadline_ms)
                                      : ch.recv(tag);
    }
    // Cancellation-aware wait: slice the (possibly unbounded) deadline into
    // short polls and check the token between them, so a watchdog abort
    // frees this worker within one poll even if its peer never sends.
    double remaining = run.recv_deadline_ms;
    const double slice_ms = run.cancel_poll_ms > 0 ? run.cancel_poll_ms : 25;
    while (true) {
      if (run.cancel->cancelled()) throw_cancelled(ctx);
      double wait_ms = slice_ms;
      if (run.recv_deadline_ms > 0) {
        if (remaining <= 0) {
          throw StageFailure(
              FailureKind::Timeout, ctx.device,
              "channel recv deadline expired (peer hung or dead)");
        }
        wait_ms = std::min(wait_ms, remaining);
        remaining -= wait_ms;
      }
      if (std::optional<model::Tensor> got = ch.recv_opt(tag, wait_ms)) {
        return std::move(*got);
      }
    }
  };
  // Per (micro_batch, half, chunk) stash. Under recompute (activation
  // checkpointing) it holds exactly the per-block inputs; otherwise each
  // block's forward cache.
  struct Stash {
    std::vector<model::Tensor> inputs;                       // recompute
    std::vector<std::unique_ptr<model::Block::Cache>> caches;  // cached
    model::Tensor head_input;  // the last block's input (loss recompute)
  };
  std::map<std::tuple<int, int, int>, Stash> stash;
  // Zero-bubble split: per (micro_batch, half, chunk) deferred weight-half
  // states, one per block, written by BackwardInput and drained by the
  // matching BackwardWeight. This -- not the activation stash, which
  // BackwardInput frees like a fused backward would -- is the extra
  // footprint the memory model's deferred_grad_bytes term prices.
  std::map<std::tuple<int, int, int>,
           std::vector<std::unique_ptr<model::Block::BwState>>>
      bw_stash;

  int op_index = 0;
  for (const core::ScheduleOp& op : ctx.schedule->order[ctx.device]) {
    check_faults_before_op(ctx, op_index);
    ++op_index;
    const int global = ctx.schedule->global_stage(ctx.device, op.chunk);
    const bool first = global == 0;
    const bool last = global == global_stages - 1;
    const BlockRange range = ctx.blocks[op.chunk];
    const MessageTag tag{op.type, op.micro_batch, op.half};

    if (op.type == core::OpType::Forward) {
      model::Tensor x;
      if (first) {
        // Whole micro-batches inject just the ids tensor; only actual
        // halves go through slice_half. (An if/else rather than ?: -- the
        // conditional operator would materialize a temporary copy of
        // mb.ids; this way the tiny id copy below is the single counted
        // copy per micro-batch on the whole hot path.)
        const model::Batch& mb = (*ctx.micro_batches)[op.micro_batch];
        if (op.half < 0) {
          x = mb.ids;
        } else {
          x = slice_half(mb, ctx.seq_len, op.half).ids;  // moves from temp
        }
      } else {
        x = receive((*ctx.forward_channels)[global - 1], tag);
        verify_received(ctx, /*backward=*/false, global - 1, op, x);
      }
      auto& entry = stash[{op.micro_batch, op.half, op.chunk}];
      entry = Stash{};
      // Copy-free stash: the block input is *moved* into the stash slot
      // that backward will read it from, and the forward runs off that
      // slot -- no activation payload is duplicated. The last stage's
      // loss recompute reads the head block's input from inputs.back()
      // under recompute, else from the dedicated head_input slot.
      for (int b = range.first; b < range.first + range.count; ++b) {
        const bool head = last && b == range.first + range.count - 1;
        if (run.recompute) {
          entry.inputs.push_back(std::move(x));
          x = ctx.model->block(b).forward(entry.inputs.back());
        } else if (head) {
          entry.head_input = std::move(x);
          model::Tensor y;
          entry.caches.push_back(
              ctx.model->block(b).forward_cached(entry.head_input, &y));
          x = std::move(y);
        } else {
          model::Tensor y;
          entry.caches.push_back(ctx.model->block(b).forward_cached(x, &y));
          x = std::move(y);
        }
      }
      if (!last) {
        stamp_outgoing(ctx, /*backward=*/false, global, op, x);
        (*ctx.forward_channels)[global].send(tag, std::move(x));
      }
      // The last stage discards logits here and recomputes them in the
      // backward op -- even without checkpointing, keeping the huge logits
      // tensor alive through the 1F1B phase would dominate memory.
    } else if (op.type == core::OpType::BackwardWeight) {
      const auto it = bw_stash.find({op.micro_batch, op.half, op.chunk});
      if (it == bw_stash.end()) {
        throw std::logic_error("grad-weight before grad-input for a micro-batch");
      }
      // Blocks retire high -> low, mirroring the fused backward's block
      // order; each block's own accumulation order is backward_weight's
      // bit-identity contract.
      auto& states = it->second;
      for (int b = range.first + range.count - 1; b >= range.first; --b) {
        if (const auto& s = states[b - range.first]) {
          ctx.model->block(b).backward_weight(*s);
        }
      }
      bw_stash.erase(it);
    } else {
      const auto it = stash.find({op.micro_batch, op.half, op.chunk});
      if (it == stash.end()) {
        throw std::logic_error("backward before forward for a micro-batch");
      }
      Stash& entry = it->second;
      model::Tensor dy;
      if (last) {
        // Recompute the logits from the head block's stashed input, then
        // seed the backward pass with the cross-entropy gradient. Targets
        // are a span into the shared micro-batch -- no Batch copy.
        const model::Batch& whole = (*ctx.micro_batches)[op.micro_batch];
        std::span<const int> targets(whole.targets);
        if (op.half >= 0) {
          const int first_rows =
              (whole.ids.dim(0) / ctx.seq_len / 2) * ctx.seq_len;
          targets = op.half == 0 ? targets.first(first_rows)
                                 : targets.subspan(first_rows);
        }
        const int head = range.first + range.count - 1;
        const model::Tensor& head_in =
            run.recompute ? entry.inputs.back() : entry.head_input;
        const model::Tensor logits = ctx.model->block(head).forward(head_in);
        loss += model::cross_entropy(logits, targets, ctx.loss_scale, &dy);
      } else {
        dy = receive((*ctx.backward_channels)[global], tag);
        verify_received(ctx, /*backward=*/true, global, op, dy);
      }
      const bool split = op.type == core::OpType::BackwardInput;
      if (split && !run.recompute) {
        throw std::invalid_argument(
            "zero-bubble split backward requires recompute (the input half "
            "re-derives intermediates from stashed block inputs)");
      }
      std::vector<std::unique_ptr<model::Block::BwState>> states;
      if (split) states.resize(range.count);
      for (int b = range.first + range.count - 1; b >= range.first; --b) {
        model::Block& block = ctx.model->block(b);
        if (split) {
          dy = block.backward_input(entry.inputs[b - range.first], dy,
                                    &states[b - range.first]);
        } else if (run.recompute) {
          dy = block.backward(entry.inputs[b - range.first], dy);
        } else {
          dy = block.backward_cached(*entry.caches[b - range.first], dy);
        }
      }
      if (split) {
        bw_stash[{op.micro_batch, op.half, op.chunk}] = std::move(states);
      }
      if (!first) {
        stamp_outgoing(ctx, /*backward=*/true, global - 1, op, dy);
        (*ctx.backward_channels)[global - 1].send(tag, std::move(dy));
      }
      stash.erase(it);
    }
    if (run.health != nullptr) run.health->beat(ctx.device, op_index);
  }
  if (!stash.empty()) {
    throw std::logic_error("device finished with unconsumed activations");
  }
  if (!bw_stash.empty()) {
    throw std::logic_error("device finished with deferred weight gradients");
  }
  return loss;
}

}  // namespace autopipe::runtime
