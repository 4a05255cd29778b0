#include "supervisor/watchdog.h"

#include <algorithm>
#include <chrono>
#include <string>

namespace autopipe::supervisor {

std::vector<double> max_silent_gaps_ms(const core::Schedule& schedule,
                                       const core::ScheduleEval& eval) {
  return max_silent_gaps_ms(device_op_ends_ms(schedule, eval));
}

std::vector<double> max_silent_gaps_ms(
    const std::vector<std::vector<double>>& ends) {
  std::vector<double> gaps(ends.size(), 0.0);
  for (std::size_t d = 0; d < ends.size(); ++d) {
    double prev = 0.0;  // the board is stamped "now" at iteration start
    for (double e : ends[d]) {
      gaps[d] = std::max(gaps[d], e - prev);
      prev = e;
    }
  }
  return gaps;
}

std::vector<std::vector<double>> device_op_ends_ms(
    const core::Schedule& schedule, const core::ScheduleEval& eval) {
  // EvalOp order within a device follows the schedule's execution order,
  // whose end times are monotone on one device, but sort anyway to stay
  // robust.
  std::vector<std::vector<double>> ends(schedule.num_stages);
  for (const core::EvalOp& op : eval.ops) {
    ends[op.device].push_back(op.end_ms);
  }
  for (std::vector<double>& e : ends) std::sort(e.begin(), e.end());
  return ends;
}

Watchdog::Watchdog(runtime::HealthBoard& board, runtime::CancelToken& cancel,
                   std::vector<double> deadline_ms,
                   const WatchdogOptions& options,
                   std::vector<std::vector<double>> op_ends_ms)
    : board_(board),
      cancel_(cancel),
      deadline_ms_(std::move(deadline_ms)),
      options_(options),
      op_ends_ms_(std::move(op_ends_ms)) {}

Watchdog::~Watchdog() { disarm(); }

void Watchdog::arm() {
  if (thread_.joinable()) return;
  thread_ = std::thread([this] { watch(); });
}

WatchdogVerdict Watchdog::disarm() {
  stop_.cancel("disarmed");
  if (thread_.joinable()) thread_.join();
  return verdict_;
}

void Watchdog::watch() {
  using clock = std::chrono::steady_clock;
  const clock::time_point armed_at = clock::now();
  while (!stop_.wait_for_ms(options_.poll_ms)) {
    // The iteration aborting on its own (worker failure poisons the token)
    // ends the watch without a verdict -- the StageFailure already carries
    // the diagnosis.
    if (cancel_.cancelled()) return;
    // Blame: the wedged stage starves its peers, so by the time a deadline
    // expires several devices are silent at once -- and the starved ones
    // (idling through a bubble they will never leave) have often been
    // quiet LONGER than the culprit. With a blame table the verdict goes to
    // the device most behind the priced schedule: the one whose next
    // expected op completion is earliest among live devices that still owe
    // ops. Without a table, longest silence past deadline wins.
    // Trigger: the blamed device silent past its own deadline. A starved
    // peer that went quiet first may pass its deadline earlier; firing on
    // it would report the culprit silent for less than its deadline.
    const int devices = board_.devices();
    int blame = -1;
    double blame_score = 0.0;  // see below; lower-is-guiltier per rule
    double blame_silent = 0.0;
    double blame_deadline = 0.0;
    for (int d = 0; d < devices; ++d) {
      const runtime::DeviceHealth state = board_.state(d);
      if (state == runtime::DeviceHealth::Done ||
          state == runtime::DeviceHealth::Failed) {
        continue;
      }
      const double deadline = std::max(
          options_.grace_ms, d < static_cast<int>(deadline_ms_.size())
                                 ? deadline_ms_[d]
                                 : 0.0);
      const double silent = board_.silent_ms(d);
      double score;
      if (d < static_cast<int>(op_ends_ms_.size())) {
        const std::vector<double>& ends = op_ends_ms_[d];
        const auto done = static_cast<std::size_t>(board_.ops_done(d));
        if (done >= ends.size()) {
          // Owes no ops: not a culprit -- unless nothing else qualifies
          // (a device stuck between its last op and marking Done).
          score = 1e300;
        } else {
          score = ends[done];  // expected next-op end, sim ms
        }
      } else {
        score = -(silent - deadline);  // fallback: most-over-deadline
      }
      if (blame < 0 || score < blame_score) {
        blame = d;
        blame_score = score;
        blame_silent = silent;
        blame_deadline = deadline;
      }
    }
    if (blame >= 0 && blame_silent > blame_deadline) {
      verdict_.fired = true;
      verdict_.device = blame;
      verdict_.silent_ms = blame_silent;
      verdict_.deadline_ms = blame_deadline;
      verdict_.detection_ms =
          std::chrono::duration<double, std::milli>(clock::now() - armed_at)
              .count();
      cancel_.cancel("watchdog: device " + std::to_string(blame) +
                     " silent for " + std::to_string(verdict_.silent_ms) +
                     " ms (deadline " + std::to_string(verdict_.deadline_ms) +
                     " ms)");
      return;
    }
  }
}

}  // namespace autopipe::supervisor
