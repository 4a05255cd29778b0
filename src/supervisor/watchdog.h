// Plan-aware hang detection over the runtime's health board.
//
// A watchdog watches one iteration attempt from its own thread: it samples
// the HealthBoard every few milliseconds and, when the device it blames
// has been silent longer than that device's deadline, cancels the
// iteration's CancelToken -- every worker then unwinds as
// StageFailure(Timeout) and the supervisor classifies the incident using
// the watchdog's verdict.
//
// The deadlines are *plan-aware*, not a magic constant. A healthy pipeline
// worker legitimately goes quiet for whole bubble phases (device 0 under
// 1F1B idles through most of the steady state), so a naive "no beat for T"
// rule either fires on healthy bubbles or needs a T so large it misses
// real hangs. Instead, plan_deadlines() derives each device's largest
// legitimate silent gap from the analytic schedule timing
// (core::evaluate_schedule): the max spacing between that device's
// consecutive op completions in simulated time, scaled to wall time by a
// calibration ratio the supervisor measures on its first healthy step, then
// multiplied by a safety factor and floored at grace_ms. Hangs are caught
// in O(longest legitimate gap), and bubbles never false-trigger.
#pragma once

#include <thread>
#include <vector>

#include "core/schedule.h"
#include "runtime/cancel.h"
#include "runtime/health.h"

namespace autopipe::supervisor {

struct WatchdogOptions {
  /// Floor under every per-device deadline -- also the whole deadline while
  /// the wall/sim calibration ratio is still unknown (first step).
  double grace_ms = 2000;
  /// Deadline = safety_factor * expected max silent gap (wall ms). Wall
  /// noise on a loaded CI box is easily 2-3x; 8x keeps false positives out
  /// of chaos soaks while still detecting a hard hang in well under a
  /// second on the tiny models the tests run.
  double safety_factor = 8.0;
  double poll_ms = 2;  ///< board sampling period
};

/// What the watchdog saw. `fired` false = the iteration finished (or failed
/// by itself) before any deadline expired.
struct WatchdogVerdict {
  bool fired = false;
  int device = -1;       ///< the blamed device (see the ctor's blame rules)
  double silent_ms = 0;  ///< its silence when the watchdog fired
  double deadline_ms = 0;  ///< its deadline, which silent_ms exceeded
  double detection_ms = 0;  ///< arm() -> firing, wall ms
};

/// Per-device allowed silent gap in *simulated* ms: the max spacing between
/// consecutive op end times on that device under `eval` (including the wait
/// for its first completion). Multiply by a wall/sim ratio to get wall ms.
std::vector<double> max_silent_gaps_ms(const core::Schedule& schedule,
                                       const core::ScheduleEval& eval);
/// The same gaps from already computed device_op_ends_ms() output.
std::vector<double> max_silent_gaps_ms(
    const std::vector<std::vector<double>>& op_ends_ms);

/// Each device's op completion times under `eval`, ascending, in simulated
/// ms -- the blame table for Watchdog: entry [d][k] is when op k on device d
/// *should* finish in a healthy iteration.
std::vector<std::vector<double>> device_op_ends_ms(
    const core::Schedule& schedule, const core::ScheduleEval& eval);

class Watchdog {
 public:
  /// Watches `board`, pulls `cancel` on expiry. Both must outlive the
  /// watchdog. `deadline_ms` is per-device wall ms (empty entries behind
  /// board.devices() fall back to grace_ms). `op_ends_ms` (optional, from
  /// device_op_ends_ms()) sharpens blame attribution: a wedged stage
  /// starves its peers, so when a deadline expires several devices are
  /// silent at once -- and the starved ones (waiting out a long bubble)
  /// have often been silent *longer* than the culprit. With the table the
  /// watchdog blames the device most behind the priced schedule: the one
  /// whose next expected op completion is earliest among devices that
  /// still owe ops. Without it, longest silence past deadline wins. The
  /// watchdog fires once the blamed device itself is past its deadline, so
  /// the verdict's silence is the culprit's fault -> firing latency.
  Watchdog(runtime::HealthBoard& board, runtime::CancelToken& cancel,
           std::vector<double> deadline_ms, const WatchdogOptions& options,
           std::vector<std::vector<double>> op_ends_ms = {});
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Starts the watcher thread. Call after the board was reset for this
  /// attempt and before (or concurrently with) the iteration's first op.
  void arm();

  /// Stops the watcher and returns what it saw. Idempotent; safe to call
  /// whether or not the watchdog fired.
  WatchdogVerdict disarm();

 private:
  void watch();

  runtime::HealthBoard& board_;
  runtime::CancelToken& cancel_;
  std::vector<double> deadline_ms_;
  WatchdogOptions options_;
  std::vector<std::vector<double>> op_ends_ms_;
  runtime::CancelToken stop_;  ///< internal: disarm() pulls this
  std::thread thread_;
  WatchdogVerdict verdict_;
};

}  // namespace autopipe::supervisor
