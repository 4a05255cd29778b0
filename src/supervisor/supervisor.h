// Self-healing training supervisor: detect -> classify -> recover.
//
// The Supervisor wraps a runtime::TrainSession and owns the full
// self-healing loop the rest of the repo only provides parts for
// (DESIGN.md §10):
//
//   detect    every step runs under a HealthBoard + plan-aware Watchdog;
//             crashes/transients surface as typed StageFailures, hard hangs
//             are cancelled by the watchdog, stragglers show as slow-but-
//             successful steps, torn checkpoint writes as absorbed
//             StorageErrors on the session's counters.
//   classify  each incident gets a class (Transient/Crash/Hang/Straggler/
//             Storage/Corruption): the watchdog's verdict outranks the
//             StageFailure kind (under cancellation many devices throw
//             Timeout; the watchdog knows which one went silent first) --
//             except Corruption, where a CRC or sentinel mismatch is
//             definitive evidence of the root cause.
//   recover   a deterministic escalation ladder under a bounded restart
//             budget: in-place retry of the same logical step (TrainSession
//             steps are atomic: failed attempts rewind the data stream and
//             leave parameters untouched) -> restore from the latest
//             durable checkpoint and replay -> degraded replan onto N-1
//             survivors (Degrade mode; optionally consulting an external
//             plan oracle such as a running plan_serve daemon, with local
//             replan as fallback; before the first checkpoint the live,
//             atomic-step state is resharded instead of a restored one).
//             Budget exhausted or an unclassifiable error -> graceful
//             abort with a typed report. Corruption has
//             its own rung: in-flight flips (activation/gradient) were
//             consumed by the detected attempt, so an in-place re-execute
//             is state-exact; corrupted *state* (weight/optimizer flips)
//             cannot be retried -- those restore from the newest
//             verified-clean checkpoint (ckpt::RestoreOptions) or, lacking
//             one, rebuild the deterministic initial state and replay.
//
// Recovery modes: Replace (default) restores onto the same device count --
// a spare takes the dead device's slot -- which keeps every recovery
// state-exact, so a chaos soak must end bit-identical to an unfaulted run
// of the same step count. Degrade resumes on one device fewer; exact-state
// resharding keeps gradients equal up to accumulation order (1e-4).
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/storage.h"
#include "core/autopipe.h"
#include "faults/sdc.h"
#include "runtime/health.h"
#include "runtime/train_session.h"
#include "supervisor/chaos.h"
#include "supervisor/watchdog.h"
#include "util/backoff.h"

namespace autopipe::supervisor {

enum class IncidentClass {
  Transient,
  Crash,
  Hang,
  Straggler,
  Storage,
  Corruption,  ///< an integrity guard caught silent data corruption
};
enum class Action { RetryInPlace, Restore, Replan, Absorb, Abort };

const char* to_string(IncidentClass cls);
const char* to_string(Action action);

struct Incident {
  int step = 0;  ///< logical training step the incident hit
  IncidentClass cls = IncidentClass::Crash;
  Action action = Action::RetryInPlace;
  int device = -1;
  /// Fault occurrence -> supervisor awareness, wall ms. For hangs this is
  /// the blamed device's silence (its last beat -> watchdog firing, past
  /// its deadline); for crashes/transients
  /// the failing attempt's start -> catch; for stragglers the wall overrun
  /// past the calibrated expectation; 0 for absorbed storage faults.
  double detect_ms = 0;
  /// Awareness -> the failed logical step finally completing, wall ms
  /// (MTTR numerator). 0 for incidents that lost no progress.
  double downtime_ms = 0;
  std::string what;
};

enum class RecoveryMode { Replace, Degrade };

struct SupervisorOptions {
  /// Base session configuration. The supervisor overrides `storage` (it
  /// interposes its ArmedStorage) and the `run` health/cancel/fault hooks;
  /// everything else is honoured. Checkpointing should be enabled for the
  /// restore rungs to have something to restore.
  runtime::TrainSessionOptions session;
  /// Block-level model description matching session.spec -- what restores
  /// and degraded replans re-partition.
  core::ModelConfig config;
  int target_steps = 10;
  RecoveryMode mode = RecoveryMode::Replace;
  /// Total recovery actions (retries + restores + replans) before the
  /// supervisor aborts. Bounds every soak: no fault pattern can loop it.
  int restart_budget = 12;
  /// In-place retries of one logical step before escalating to restore.
  int retries_per_step = 2;
  /// Delay ladder between recovery actions (seeded, deterministic).
  util::BackoffOptions backoff{0.5, 2.0, 2000.0, 0.0, 0};
  WatchdogOptions watchdog;
  /// Planner knobs for restore-time resharding (Degrade mode).
  core::AutoPipeOptions plan;
  /// Optional external partition oracle for degraded replans (e.g. a query
  /// against a running plan_serve daemon): called with the surviving device
  /// count, returns per-stage block counts. Empty/throwing/ill-formed
  /// answers fall back to the local planner. Never consulted in Replace
  /// mode.
  std::function<std::vector<int>(int num_gpus)> plan_oracle;
  /// Chaos script to arm (nullptr = supervise faithfully, inject nothing).
  const ChaosScript* chaos = nullptr;
  /// Bytes an armed torn checkpoint write persists before failing.
  std::size_t torn_keep_bytes = 64;
};

struct SupervisorReport {
  bool completed = false;
  int steps_done = 0;
  int recovery_actions = 0;
  std::vector<Incident> incidents;
  double total_downtime_ms = 0;
  /// losses[step] of the final (possibly replayed) pass over each step.
  std::vector<double> losses;
  std::vector<int> final_counts;
  std::string abort_reason;  ///< set when !completed

  /// Incidents of `cls` (bench helper).
  std::vector<const Incident*> of_class(IncidentClass cls) const;
};

class Supervisor {
 public:
  explicit Supervisor(const SupervisorOptions& options);
  ~Supervisor();

  /// Drives training to options.target_steps through the escalation
  /// ladder. Returns rather than throws on every anticipated failure shape
  /// (report.completed distinguishes). Call once per Supervisor.
  SupervisorReport run();

  /// The final model state (valid after run(); for gradient/param
  /// comparison against an unfaulted reference).
  const model::TransformerModel& model() const;
  const runtime::TrainSession& session() const { return *session_; }

 private:
  void build_session(const runtime::TrainSessionOptions& opts,
                     const ckpt::TrainState* state);
  void refresh_plan_timing();
  std::vector<double> current_deadlines() const;
  void arm_chaos(int step, faults::FaultPlan& plan, bool& straggler_armed);
  /// Applies a CorruptWeight/CorruptOptimizer event directly to the live
  /// session state (flips one bit); the weight guard must catch it at the
  /// next sentinel check.
  void apply_state_flip(const ChaosEvent& event);
  bool charge_action(SupervisorReport& report, const std::string& context);
  void close_open_incidents(SupervisorReport& report);
  /// Partition for `survivors` devices: the plan oracle's answer when
  /// well-formed, else the local Planner (core::resume_partition).
  std::vector<int> degraded_counts(int survivors);

  SupervisorOptions options_;
  ckpt::PosixStorage posix_;
  ArmedStorage armed_;
  runtime::HealthBoard board_;
  std::unique_ptr<runtime::TrainSession> session_;
  runtime::TrainSessionOptions session_opts_;
  util::Backoff backoff_;
  /// Plan-priced timing of the current schedule: per-device max silent
  /// gaps (sim ms), per-device op completion times (sim ms, the watchdog's
  /// blame table) and the full iteration (sim ms).
  std::vector<double> sim_gaps_ms_;
  std::vector<std::vector<double>> sim_op_ends_ms_;
  double sim_iteration_ms_ = 0;
  double wall_per_sim_ = 0;  ///< 0 until the first clean step calibrates
  std::vector<bool> consumed_;  ///< chaos events armed once, ever
  /// In-flight bit-flip injector, threaded into every session's RunOptions.
  /// Consumed-once like the rest of the chaos machinery.
  faults::SdcInjector sdc_;
  std::vector<std::size_t> open_incidents_;  ///< indices awaiting downtime
  std::vector<std::chrono::steady_clock::time_point> open_since_;
};

}  // namespace autopipe::supervisor
