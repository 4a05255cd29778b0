#include "sim/executor.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "sim/event_engine.h"
#include "util/rng.h"

namespace autopipe::sim {

ExecResult execute(const core::Schedule& schedule, const ExecOptions& options) {
  ScheduleGraph sg = build_schedule_graph(schedule);
  TaskGraph& graph = sg.graph;
  const int n = schedule.num_stages;
  const int num_ops = graph.size();

  // Fault hooks only engage for a non-empty plan: a null or empty FaultPlan
  // follows the exact arithmetic of the fault-free path, keeping its results
  // bit-identical (the determinism contract of DESIGN.md §6).
  const faults::FaultPlan* plan =
      options.faults && !options.faults->empty() ? options.faults : nullptr;
  if (plan) plan->validate(n, std::max(0, schedule.chunks * n - 1));

  // Per-op overhead and jitter on top of the base costs, drawn in task
  // order.
  util::Rng rng(options.seed);
  for (int id = 0; id < num_ops; ++id) {
    double duration = graph.duration(id) + options.per_op_overhead_ms;
    if (options.jitter_frac > 0) {
      duration *= 1.0 + options.jitter_frac * rng.uniform(-1.0, 1.0);
    }
    graph.set_duration(id, duration);
  }

  // Hybrid data parallelism: append one all-reduce task per device, gated
  // on that device's final op.
  if (!options.allreduce_ms.empty()) {
    if (static_cast<int>(options.allreduce_ms.size()) != n) {
      throw std::invalid_argument("allreduce_ms must have one entry per device");
    }
    int cursor = 0;
    for (int dev = 0; dev < n; ++dev) {
      const int count = static_cast<int>(schedule.order[dev].size());
      if (count > 0 && options.allreduce_ms[dev] > 0) {
        const int ar = graph.add_task(options.allreduce_ms[dev], dev);
        graph.add_dep(cursor + count - 1, ar, 0.0);
        sg.edge_boundary.push_back(-1);  // same device, no link
      }
      cursor += count;
    }
  }

  // Actual durations per task: the base value unless a straggler hook
  // stretches it (device_busy_ms and crash truncation use these).
  std::vector<double> actual_ms(graph.size());
  for (int id = 0; id < graph.size(); ++id) actual_ms[id] = graph.duration(id);

  int link_retries = 0;
  TaskGraph::Timing timing;
  if (plan) {
    const TaskGraph::DurationFn dur_fn = [&](int id, double start) {
      const double factor = plan->slowdown(graph.rank(id), start);
      const double d =
          factor == 1.0 ? graph.duration(id) : graph.duration(id) * factor;
      actual_ms[id] = d;
      return d;
    };
    const TaskGraph::LagFn lag_fn = [&](int e, double base, double end) {
      if (sg.edge_boundary[e] < 0) return base;  // same-device edge, no link
      const faults::TransferOutcome t =
          plan->transfer(sg.edge_boundary[e], end, base);
      link_retries += t.retries;
      return t.lag_ms;
    };
    timing = graph.run(dur_fn, lag_fn);
  } else {
    timing = graph.run();
  }

  // Crash truncation: a task on a crashed device that has not *finished* by
  // the crash instant is lost, and so is -- transitively -- every task that
  // consumes a lost task's output. Edges only point forward in time, so a
  // fixpoint sweep converges in at most graph-diameter passes.
  std::vector<char> lost(graph.size(), 0);
  FailureReport failure;
  // Runtime-only crash triggers (after_ops with an infinite at_ms) do not
  // touch the simulated timeline.
  const auto timed_crash = [&](int device) -> const faults::DeviceCrash* {
    const faults::DeviceCrash* c = plan ? plan->crash_for(device) : nullptr;
    return c && c->at_ms < std::numeric_limits<double>::infinity() ? c
                                                                   : nullptr;
  };
  if (plan && !plan->crashes.empty()) {
    for (int id = 0; id < graph.size(); ++id) {
      if (const faults::DeviceCrash* c = timed_crash(graph.rank(id))) {
        if (timing.end_ms[id] > c->at_ms) lost[id] = 1;
      }
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (const TaskGraph::Edge& edge : graph.edges()) {
        if (lost[edge.from] && !lost[edge.to]) {
          lost[edge.to] = 1;
          changed = true;
        }
      }
    }
    for (int dev = 0; dev < n; ++dev) {
      if (const faults::DeviceCrash* c = timed_crash(dev)) {
        if (!failure.crashed || c->at_ms < failure.at_ms) {
          failure.crashed = true;
          failure.device = dev;
          failure.at_ms = c->at_ms;
        }
      }
    }
  }

  ExecResult result;
  result.failure = failure;
  result.link_retries = link_retries;
  result.device_busy_ms.assign(n, 0.0);
  result.trace.reserve(num_ops);
  result.startup_ms = 0;
  bool startup_found = false;
  double completed_makespan = 0;
  // Compute ops only; trailing all-reduce tasks count toward the makespan
  // but are not compute busy time.
  for (int id = 0; id < num_ops; ++id) {
    if (lost[id]) {
      ++result.failure.lost_ops;
      continue;
    }
    ++result.failure.completed_ops;
    const TimedOp timed{sg.ops[id], graph.rank(id), timing.start_ms[id],
                        timing.end_ms[id]};
    result.device_busy_ms[timed.device] += actual_ms[id];
    // Startup overhead (§II-B): when the last *device* starts computing its
    // first forward. Under the interleaved schedule that is the device's
    // first chunk -- the half-size chunks are exactly why interleaving
    // halves startup.
    if (timed.op.type == core::OpType::Forward && timed.device == n - 1 &&
        (!startup_found || timed.start_ms < result.startup_ms)) {
      result.startup_ms = timed.start_ms;
      startup_found = true;
    }
    result.trace.push_back(timed);
  }
  if (failure.crashed) {
    // The iteration never finishes; report how far the pipeline got. Lost
    // all-reduce tasks are excluded along with lost compute ops.
    for (int id = 0; id < graph.size(); ++id) {
      if (!lost[id]) {
        completed_makespan = std::max(completed_makespan, timing.end_ms[id]);
      }
    }
    result.iteration_ms = std::max(completed_makespan, failure.at_ms);
  } else {
    result.iteration_ms = timing.makespan_ms;
  }
  std::sort(result.trace.begin(), result.trace.end(),
            [](const TimedOp& a, const TimedOp& b) {
              return std::tie(a.start_ms, a.device) <
                     std::tie(b.start_ms, b.device);
            });
  return result;
}

}  // namespace autopipe::sim
