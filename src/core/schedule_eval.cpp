// Analytic longest-path evaluation of a Schedule (evaluate_schedule).
//
// Times the schedule's dependency graph (sim::build_schedule_graph, the one
// sim::execute runs) with TaskGraph's relaxation, whose tie-break binds the
// higher device among equally late predecessors. Without per-op overhead,
// jitter, all-reduce or faults the executor adds nothing to that graph, so
// the two timings agree bit-for-bit; on top of them this pass reports the
// startup overhead and backtracks the critical path.
#include <algorithm>

#include "core/schedule.h"
#include "sim/event_engine.h"

namespace autopipe::core {

ScheduleEval evaluate_schedule(const Schedule& schedule) {
  const sim::ScheduleGraph sg = sim::build_schedule_graph(schedule);
  const sim::TaskGraph::Timing timing = sg.graph.run();
  const int n = schedule.num_stages;

  // Results: makespan, startup (first forward on the last device), and the
  // critical path backtracked from the op that finishes last (ties toward
  // the higher device).
  ScheduleEval eval;
  eval.iteration_ms = timing.makespan_ms;
  const int total = sg.graph.size();
  eval.ops.reserve(total);
  int tail = -1;
  bool startup_found = false;
  for (int id = 0; id < total; ++id) {
    const EvalOp& op = eval.ops.emplace_back(
        EvalOp{sg.ops[id], sg.graph.rank(id), timing.start_ms[id],
               timing.end_ms[id], timing.binding_pred[id], false});
    if (tail < 0 || op.end_ms > eval.ops[tail].end_ms ||
        (op.end_ms == eval.ops[tail].end_ms &&
         op.device > eval.ops[tail].device)) {
      tail = id;
    }
    if (op.op.type == OpType::Forward && op.device == n - 1 &&
        (!startup_found || op.start_ms < eval.startup_ms)) {
      eval.startup_ms = op.start_ms;
      startup_found = true;
    }
  }
  for (int cur = tail; cur >= 0; cur = eval.ops[cur].critical_pred) {
    eval.ops[cur].on_critical_path = true;
    eval.critical_path.push_back(cur);
  }
  std::reverse(eval.critical_path.begin(), eval.critical_path.end());
  return eval;
}

}  // namespace autopipe::core
