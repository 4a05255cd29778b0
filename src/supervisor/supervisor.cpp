#include "supervisor/supervisor.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/partition.h"
#include "core/resume.h"
#include "runtime/stage_failure.h"
#include "util/logging.h"

namespace autopipe::supervisor {

const char* to_string(IncidentClass cls) {
  switch (cls) {
    case IncidentClass::Transient: return "transient";
    case IncidentClass::Crash: return "crash";
    case IncidentClass::Hang: return "hang";
    case IncidentClass::Straggler: return "straggler";
    case IncidentClass::Storage: return "storage";
    case IncidentClass::Corruption: return "corruption";
  }
  return "?";
}

const char* to_string(Action action) {
  switch (action) {
    case Action::RetryInPlace: return "retry-in-place";
    case Action::Restore: return "restore";
    case Action::Replan: return "replan";
    case Action::Absorb: return "absorb";
    case Action::Abort: return "abort";
  }
  return "?";
}

std::vector<const Incident*> SupervisorReport::of_class(
    IncidentClass cls) const {
  std::vector<const Incident*> out;
  for (const Incident& i : incidents) {
    if (i.cls == cls) out.push_back(&i);
  }
  return out;
}

Supervisor::Supervisor(const SupervisorOptions& options)
    : options_(options),
      armed_(options.session.storage != nullptr ? *options.session.storage
                                                : posix_),
      board_(std::max<int>(1, static_cast<int>(options.session.counts.size()))),
      backoff_(options.backoff) {
  if (options_.target_steps < 1) {
    throw std::invalid_argument("supervisor: target_steps must be >= 1");
  }
  if (options_.restart_budget < 0 || options_.retries_per_step < 0) {
    throw std::invalid_argument("supervisor: budgets must be >= 0");
  }
  const int blocks = std::accumulate(options_.session.counts.begin(),
                                     options_.session.counts.end(), 0);
  if (options_.config.num_blocks() != blocks) {
    throw std::invalid_argument(
        "supervisor: config does not describe the session's block array");
  }
  consumed_.assign(
      options_.chaos != nullptr ? options_.chaos->events.size() : 0, false);
  session_opts_ = options_.session;
  session_opts_.storage = &armed_;
  build_session(session_opts_, nullptr);
}

Supervisor::~Supervisor() = default;

const model::TransformerModel& Supervisor::model() const {
  return session_->model();
}

void Supervisor::build_session(const runtime::TrainSessionOptions& opts,
                               const ckpt::TrainState* state) {
  session_ = state != nullptr
                 ? std::make_unique<runtime::TrainSession>(opts, *state)
                 : std::make_unique<runtime::TrainSession>(opts);
  runtime::RunOptions& run = session_->run_options();
  run.health = &board_;
  run.cancel = nullptr;
  run.faults = nullptr;
  run.sdc = &sdc_;
  refresh_plan_timing();
}

void Supervisor::refresh_plan_timing() {
  // Price the session's schedule shape with the analytic per-stage costs so
  // the watchdog deadlines reflect the *plan*: a device whose longest
  // legitimate silent stretch is long (deep bubble) gets a long leash, a
  // busy one a short one.
  core::Partition part;
  part.counts = session_opts_.counts;
  const std::vector<core::StageCost> costs =
      core::stage_costs(options_.config, part);
  const int m = session_opts_.num_micro_batches;
  const double comm = options_.config.comm_ms;
  const core::Schedule priced = core::build_schedule(
      session_opts_.kind, costs, m, comm, {session_opts_.sliced, 1});
  const core::ScheduleEval eval = core::evaluate_schedule(priced);
  sim_op_ends_ms_ = device_op_ends_ms(priced, eval);
  sim_gaps_ms_ = max_silent_gaps_ms(sim_op_ends_ms_);
  sim_iteration_ms_ = eval.iteration_ms;
}

std::vector<double> Supervisor::current_deadlines() const {
  std::vector<double> out(sim_gaps_ms_.size(), 0.0);
  if (wall_per_sim_ <= 0) return out;  // grace_ms floor carries the load
  for (std::size_t d = 0; d < out.size(); ++d) {
    out[d] = options_.watchdog.safety_factor * sim_gaps_ms_[d] * wall_per_sim_;
  }
  return out;
}

void Supervisor::arm_chaos(int step, faults::FaultPlan& plan,
                           bool& straggler_armed) {
  if (options_.chaos == nullptr) return;
  const int devices = session_->num_devices();
  for (std::size_t i = 0; i < options_.chaos->events.size(); ++i) {
    if (consumed_[i]) continue;
    const ChaosEvent& e = options_.chaos->events[i];
    if (e.step != step) continue;
    consumed_[i] = true;  // armed exactly once, ever (see chaos.h)
    const int device = devices > 0 ? e.device % devices : 0;
    switch (e.kind) {
      case ChaosKind::Crash:
        plan.crashes.push_back({device,
                                std::numeric_limits<double>::infinity(),
                                e.op_index});
        break;
      case ChaosKind::Hang:
        plan.hangs.push_back({device, e.op_index});
        break;
      case ChaosKind::Straggler:
        plan.slow_ops.push_back({device, e.op_index, e.op_count, e.delay_ms});
        straggler_armed = true;
        break;
      case ChaosKind::Transient:
        plan.transients.push_back({device, e.op_index, e.failures});
        break;
      case ChaosKind::TornCheckpoint:
        armed_.arm_torn_write(options_.torn_keep_bytes);
        break;
      case ChaosKind::CorruptActivation:
      case ChaosKind::CorruptGradient: {
        const int boundaries =
            static_cast<int>(session_opts_.counts.size()) - 1;
        if (boundaries < 1) {
          // Single-stage pipelines have no handoff to corrupt in flight;
          // land the flip on state instead so the event still fires.
          apply_state_flip(e);
          break;
        }
        faults::SdcFault f;
        f.target = e.kind == ChaosKind::CorruptActivation
                       ? faults::SdcTarget::Activation
                       : faults::SdcTarget::Gradient;
        f.boundary = e.device % boundaries;
        f.micro_batch = e.op_index % session_opts_.num_micro_batches;
        f.elem = e.elem;
        f.bit = e.bit;
        sdc_.arm(f);
        break;
      }
      case ChaosKind::CorruptWeight:
      case ChaosKind::CorruptOptimizer:
        apply_state_flip(e);
        break;
    }
  }
}

void Supervisor::apply_state_flip(const ChaosEvent& event) {
  // Between-steps state corruption: flip one bit directly in the live
  // session. Nothing fail-stop notices -- only the weight sentinel can.
  model::TransformerModel& m = session_->model();
  const int b = event.op_index % m.num_blocks();
  std::vector<model::ParamTensor>& params = m.block(b).params();
  const std::size_t p =
      static_cast<std::size_t>((event.elem >> 32) % params.size());
  if (event.kind == ChaosKind::CorruptOptimizer) {
    runtime::AdamState st = session_->optimizer().state();
    std::size_t slot = p;
    for (int k = 0; k < b; ++k) slot += m.block(k).params().size();
    if (st.t > 0 && slot < st.m.size() && !st.m[slot].empty()) {
      std::vector<float>& moment = event.bit % 2 == 0 ? st.m[slot] : st.v[slot];
      faults::flip_float_bit(moment.data(), moment.size(),
                             event.elem & 0xffffffffu, event.bit);
      session_->optimizer().set_state(std::move(st));
      return;
    }
    // No moments yet (before the first optimizer step): fall through to a
    // parameter flip so the event still injects something detectable.
  }
  model::Tensor& value = params[p].value;
  faults::flip_float_bit(value.data(), value.numel(),
                         event.elem & 0xffffffffu, event.bit);
}

bool Supervisor::charge_action(SupervisorReport& report,
                               const std::string& context) {
  ++report.recovery_actions;
  if (report.recovery_actions <= options_.restart_budget) return true;
  report.completed = false;
  report.abort_reason = "restart budget (" +
                        std::to_string(options_.restart_budget) +
                        ") exhausted at: " + context;
  return false;
}

void Supervisor::close_open_incidents(SupervisorReport& report) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::size_t> still_open;
  std::vector<std::chrono::steady_clock::time_point> still_since;
  for (std::size_t k = 0; k < open_incidents_.size(); ++k) {
    Incident& inc = report.incidents[open_incidents_[k]];
    // An incident is healed only once its own logical step completed --
    // a restore rolls the counter back, and the replayed earlier steps do
    // not count as recovery of a later step's failure.
    if (session_->iteration() > inc.step) {
      inc.downtime_ms =
          std::chrono::duration<double, std::milli>(now - open_since_[k])
              .count();
    } else {
      still_open.push_back(open_incidents_[k]);
      still_since.push_back(open_since_[k]);
    }
  }
  open_incidents_ = std::move(still_open);
  open_since_ = std::move(still_since);
}

std::vector<int> Supervisor::degraded_counts(int survivors) {
  std::vector<int> answer;
  if (options_.plan_oracle) {
    try {
      answer = options_.plan_oracle(survivors);
    } catch (const std::exception& e) {
      AP_LOG(warn) << "supervisor: plan oracle failed (" << e.what()
                   << "); falling back to local replan";
    }
  }
  return core::resume_partition(options_.config, options_.plan, survivors,
                                answer);
}

SupervisorReport Supervisor::run() {
  using clock = std::chrono::steady_clock;
  SupervisorReport report;
  report.losses.assign(static_cast<std::size_t>(options_.target_steps), 0.0);

  int retries_this_step = 0;
  int last_step_seen = -1;
  while (session_->iteration() < options_.target_steps) {
    const int step = session_->iteration();
    if (step != last_step_seen) {
      retries_this_step = 0;
      last_step_seen = step;
      backoff_.reset();
    }
    faults::FaultPlan plan;
    bool straggler_armed = false;
    arm_chaos(step, plan, straggler_armed);
    const bool runtime_faults = !plan.empty();
    const int ckpt_failures_before = session_->checkpoint_failures();
    const guard::GuardCounters& gc = session_->guard_counters();
    const long weight_failures_before = gc.weight_failures;
    const long detections_before = gc.handoff_failures +
                                   gc.nonfinite_failures +
                                   gc.weight_failures + gc.norm_trips;

    runtime::CancelToken token;
    runtime::RunOptions& run = session_->run_options();
    run.health = &board_;
    run.cancel = &token;
    run.faults = runtime_faults ? &plan : nullptr;
    Watchdog dog(board_, token, current_deadlines(), options_.watchdog,
                 sim_op_ends_ms_);
    dog.arm();

    const clock::time_point t0 = clock::now();
    bool ok = false;
    runtime::StageFailure failure(runtime::FailureKind::Crash, -1, "");
    double loss = 0;
    try {
      loss = session_->step();
      ok = true;
    } catch (const runtime::StageFailure& e) {
      failure = e;
    } catch (const std::exception& e) {
      dog.disarm();
      run.cancel = nullptr;
      run.faults = nullptr;
      report.completed = false;
      report.abort_reason = std::string("unclassifiable failure: ") + e.what();
      report.steps_done = session_->iteration();
      report.final_counts = session_->counts();
      return report;
    }
    const WatchdogVerdict verdict = dog.disarm();
    run.cancel = nullptr;  // the token dies with this loop round
    run.faults = nullptr;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();

    if (ok) {
      report.losses[static_cast<std::size_t>(step)] = loss;
      report.steps_done = session_->iteration();
      close_open_incidents(report);
      if (session_->checkpoint_failures() > ckpt_failures_before) {
        Incident inc;
        inc.step = step;
        inc.cls = IncidentClass::Storage;
        inc.action = Action::Absorb;
        inc.what = session_->last_checkpoint_error();
        report.incidents.push_back(inc);
      }
      if (straggler_armed) {
        Incident inc;
        inc.step = step;
        inc.cls = IncidentClass::Straggler;
        inc.action = Action::Absorb;
        const double expected = sim_iteration_ms_ * wall_per_sim_;
        inc.detect_ms = wall_per_sim_ > 0 ? std::max(0.0, wall_ms - expected)
                                          : wall_ms;
        inc.what = "step completed slowly under injected straggler";
        report.incidents.push_back(inc);
      } else if (!runtime_faults && sim_iteration_ms_ > 0) {
        // Clean step: (re)calibrate the wall/sim ratio the plan-aware
        // deadlines scale by.
        wall_per_sim_ = wall_ms / sim_iteration_ms_;
      }
      continue;
    }

    // ---- failure path -------------------------------------------------
    Incident inc;
    inc.step = step;
    inc.what = failure.what();
    // Did any integrity guard detect during this attempt? The counters are
    // the ground truth: under cancellation races the *origin* failure can
    // surface as Timeout/PeerClosed even though a guard fired first.
    const long detections_now = gc.handoff_failures + gc.nonfinite_failures +
                                gc.weight_failures + gc.norm_trips;
    if (failure.kind() == runtime::FailureKind::Corruption ||
        detections_now > detections_before) {
      // A CRC or sentinel mismatch is definitive evidence of the root
      // cause, so it outranks even the watchdog verdict.
      inc.cls = IncidentClass::Corruption;
      inc.device = failure.kind() == runtime::FailureKind::Corruption
                       ? failure.device()
                       : -1;
      inc.detect_ms = wall_ms;
    } else if (verdict.fired) {
      // Under cancellation every worker throws Timeout; the watchdog knows
      // which device actually went silent first.
      inc.cls = IncidentClass::Hang;
      inc.device = verdict.device;
      inc.detect_ms = verdict.silent_ms;
    } else if (failure.kind() == runtime::FailureKind::Transient) {
      inc.cls = IncidentClass::Transient;
      inc.device = failure.device();
      inc.detect_ms = wall_ms;
    } else if (failure.kind() == runtime::FailureKind::Timeout) {
      // A recv deadline expired without the watchdog firing: a peer is
      // wedged but the board kept beating (e.g. hang before the final
      // sends). Same class, coarser detector.
      inc.cls = IncidentClass::Hang;
      inc.device = failure.device();
      inc.detect_ms = wall_ms;
    } else {
      inc.cls = IncidentClass::Crash;
      inc.device = failure.device();
      inc.detect_ms = wall_ms;
    }

    // Corruption splits on *where* the flip landed. A weight-sentinel
    // mismatch means the persistent state itself is rotten -- retrying on
    // it would just re-detect, so only a verified-clean restore helps. Any
    // other Corruption (handoff CRC, non-finite, norm trip) hit in-flight
    // data: the step is atomic and the injected flip was consumed by the
    // detected attempt, so an in-place re-execute is state-exact.
    const bool weight_corruption =
        inc.cls == IncidentClass::Corruption &&
        session_->guard_counters().weight_failures > weight_failures_before;
    const bool inflight_corruption =
        inc.cls == IncidentClass::Corruption && !weight_corruption;

    if (!charge_action(report, std::string(to_string(inc.cls)) + " at step " +
                                   std::to_string(step))) {
      inc.action = Action::Abort;
      report.incidents.push_back(inc);
      report.steps_done = session_->iteration();
      report.final_counts = session_->counts();
      return report;
    }

    if ((inc.cls == IncidentClass::Transient || inflight_corruption) &&
        retries_this_step < options_.retries_per_step) {
      // Rung 1: the step is atomic (parameters untouched, data stream
      // rewound), so retrying in place is state-exact. The injected fault
      // was consumed when it was armed, so the retry runs clean.
      ++retries_this_step;
      inc.action = Action::RetryInPlace;
      report.incidents.push_back(inc);
      open_incidents_.push_back(report.incidents.size() - 1);
      open_since_.push_back(clock::now());
      util::Backoff::sleep_for_ms(backoff_.next_ms());
      continue;
    }

    // Rung 2/3: restore from the newest durable checkpoint -- same device
    // count in Replace mode (a spare fills the slot; state-exact), one
    // fewer in Degrade mode (exact-state resharding onto a replanned
    // partition, optionally from the external plan oracle).
    const int devices = session_->num_devices();
    const bool degrade = options_.mode == RecoveryMode::Degrade && devices > 1;
    core::ResumeOptions ropts;
    // Corrupted state must not be restored from a checkpoint that might
    // carry the same corruption: insist on the verified-clean stamp.
    ropts.require_verified = weight_corruption;
    try {
      ckpt::TrainState state;
      try {
        state = core::resume_from_checkpoint(options_.config, armed_,
                                             session_opts_.ckpt_dir, ropts)
                    .state;
      } catch (const ckpt::CkptError& e) {
        if (!degrade || weight_corruption ||
            e.kind() != ckpt::CkptErrorKind::NotFound) {
          throw;
        }
        // Nothing durable yet, but steps are atomic: the live state is
        // exactly what a checkpoint written now would hold, so it reshards
        // onto the survivors as well as a restored one would.
        state = session_->capture();
        inc.what += " [no checkpoint yet; resharded the live state]";
      }
      inc.action = degrade ? Action::Replan : Action::Restore;
      session_opts_.counts =
          degrade ? degraded_counts(devices - 1) : state.counts;
      // The board is sized for the initial cluster; the runtime re-reset()s
      // it to the (possibly smaller) device count on every iteration.
      build_session(session_opts_, &state);
      AP_LOG(warn) << "supervisor: " << to_string(inc.cls) << " at step "
                   << step << " -> " << to_string(inc.action)
                   << " from step " << state.step << " on "
                   << session_opts_.counts.size() << " device(s)";
    } catch (const ckpt::CkptError& e) {
      if (weight_corruption && e.kind() != ckpt::CkptErrorKind::Mismatch) {
        // No verified-clean checkpoint exists (none yet, or none stamped).
        // The one state we can still trust is the deterministic step-0
        // initialisation: rebuild it and replay. Bit-exact, just slow.
        inc.action = Action::Restore;
        inc.what += " [no verified-clean checkpoint; rebuilt from step 0]";
        build_session(session_opts_, nullptr);
      } else if (e.kind() == ckpt::CkptErrorKind::NotFound) {
        // Nothing durable yet. Atomic steps make an in-place retry exactly
        // as safe as a restore would have been.
        inc.action = Action::RetryInPlace;
        inc.what += " [no checkpoint yet; retried in place]";
      } else {
        inc.action = Action::Abort;
        report.incidents.push_back(inc);
        report.completed = false;
        report.abort_reason =
            std::string("checkpoint restore failed: ") + e.what();
        report.steps_done = session_->iteration();
        report.final_counts = session_->counts();
        return report;
      }
    } catch (const std::exception& e) {
      inc.action = Action::Abort;
      report.incidents.push_back(inc);
      report.completed = false;
      report.abort_reason = std::string("recovery failed: ") + e.what();
      report.steps_done = session_->iteration();
      report.final_counts = session_->counts();
      return report;
    }
    report.incidents.push_back(inc);
    open_incidents_.push_back(report.incidents.size() - 1);
    open_since_.push_back(clock::now());
    util::Backoff::sleep_for_ms(backoff_.next_ms());
  }

  report.completed = true;
  report.steps_done = session_->iteration();
  report.final_counts = session_->counts();
  for (const Incident& i : report.incidents) {
    report.total_downtime_ms += i.downtime_ms;
  }
  return report;
}

}  // namespace autopipe::supervisor
