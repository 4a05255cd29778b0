// Dependency-graph timing, and the one builder of a Schedule's graph.
//
// Tasks have fixed durations and lagged finish-to-start dependencies; the
// engine computes earliest start/end times in topological order (Kahn).
// Device serialization is expressed by chaining each device's ops with
// zero-lag edges, and communication by cross-device edges whose lag is the
// transfer time -- which makes this a compact discrete-event execution model
// for pipeline schedules. build_schedule_graph() turns a Schedule into such
// a graph; core::evaluate_schedule and sim::execute both time that graph.
#pragma once

#include <functional>
#include <vector>

#include "core/schedule.h"

namespace autopipe::sim {

class TaskGraph {
 public:
  struct Edge {
    int from;
    int to;
    double lag_ms;
  };

  /// Adds a task and returns its id (dense, starting at 0). `rank` breaks
  /// ties between equally late predecessors (see Timing::binding_pred);
  /// schedule graphs use the task's device.
  int add_task(double duration_ms, int rank = 0);

  /// `to` may start no earlier than end(`from`) + `lag_ms`. Returns the
  /// edge id (dense, in insertion order) so callers can attach metadata --
  /// the fault-aware executor keys per-edge boundary indices on it.
  int add_dep(int from, int to, double lag_ms = 0.0);

  /// Pre-sizes storage for `tasks` tasks and `edges` edges.
  void reserve(int tasks, int edges);

  int size() const { return static_cast<int>(durations_.size()); }
  double duration(int id) const { return durations_[id]; }
  void set_duration(int id, double duration_ms) { durations_[id] = duration_ms; }
  int rank(int id) const { return ranks_[id]; }
  /// Every edge, indexed by the id add_dep returned.
  const std::vector<Edge>& edges() const { return edges_; }

  struct Timing {
    std::vector<double> start_ms;
    std::vector<double> end_ms;
    double makespan_ms = 0;
    /// For each task, the predecessor task that bound its start (-1 if no
    /// arrival reached it); lets callers reconstruct critical paths. An
    /// arrival equal to the current start binds when the task has no
    /// binding yet or when it comes from a higher-ranked task, so among
    /// equally late predecessors the highest rank wins -- on a schedule
    /// graph the device "closest to the last pipeline stage" (Fig. 4),
    /// which keeps the critical path unique.
    std::vector<int> binding_pred;
  };

  /// Earliest-start schedule. Throws std::logic_error if the graph has a
  /// cycle (a malformed pipeline schedule).
  Timing run() const;

  /// Time-dependent variant for fault injection: `duration_fn(id, start)`
  /// yields a task's actual duration once its start time is known (straggler
  /// windows), `lag_fn(edge, base_lag, producer_end)` the actual lag of an
  /// edge once its producer's end is known (link spikes and outage retries).
  /// Earliest-start times are computed in topological order, so both inputs
  /// are final when each hook runs. Null hooks fall back to the stored
  /// values through the identical arithmetic as run(), making the no-fault
  /// path bit-identical.
  using DurationFn = std::function<double(int id, double start_ms)>;
  using LagFn =
      std::function<double(int edge, double base_lag_ms, double end_ms)>;
  Timing run(const DurationFn& duration_fn, const LagFn& lag_fn) const;

 private:
  std::vector<double> durations_;
  std::vector<int> ranks_;
  std::vector<Edge> edges_;
};

/// A Schedule's dependency graph. Task ids run device by device in each
/// device's execution order (task id == schedule op index), each task's
/// duration is the op's base cost and its rank is its device. Edges are
/// the intra-device serialization chain plus the cross-stage transfers,
/// lagged by the schedule's per-boundary comm costs (halved for sliced
/// halves, one full-size message for §III-C aggregated halves).
struct ScheduleGraph {
  TaskGraph graph;
  std::vector<core::ScheduleOp> ops;  ///< per task
  /// Per edge: the upstream global boundary a transfer crosses, -1 for a
  /// same-device serialization edge.
  std::vector<int> edge_boundary;
};

/// Validates `schedule` and builds its graph. Throws std::logic_error on
/// malformed schedules (duplicate ops, a consumer without a producer).
ScheduleGraph build_schedule_graph(const core::Schedule& schedule);

}  // namespace autopipe::sim
