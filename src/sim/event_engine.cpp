#include "sim/event_engine.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <tuple>

namespace autopipe::sim {

namespace {

// Key identifying one logical computation: (global stage, type, micro-batch,
// half). Chunks are folded into the global stage.
using OpKey = std::tuple<int, int, int, int>;

}  // namespace

int TaskGraph::add_task(double duration_ms, int rank) {
  durations_.push_back(duration_ms);
  ranks_.push_back(rank);
  return static_cast<int>(durations_.size()) - 1;
}

void TaskGraph::reserve(int tasks, int edges) {
  durations_.reserve(tasks);
  ranks_.reserve(tasks);
  edges_.reserve(edges);
}

int TaskGraph::add_dep(int from, int to, double lag_ms) {
  if (from < 0 || from >= size() || to < 0 || to >= size() || from == to) {
    throw std::logic_error("invalid dependency edge");
  }
  edges_.push_back({from, to, lag_ms});
  return static_cast<int>(edges_.size()) - 1;
}

TaskGraph::Timing TaskGraph::run() const { return run(nullptr, nullptr); }

TaskGraph::Timing TaskGraph::run(const DurationFn& duration_fn,
                                 const LagFn& lag_fn) const {
  const int n = size();
  std::vector<std::vector<int>> out(n);
  std::vector<int> indegree(n, 0);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    out[edges_[e].from].push_back(static_cast<int>(e));
    ++indegree[edges_[e].to];
  }

  Timing t;
  t.start_ms.assign(n, 0.0);
  t.binding_pred.assign(n, -1);

  std::vector<int> ready;
  for (int i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  t.end_ms.assign(n, 0.0);

  int processed = 0;
  while (!ready.empty()) {
    const int id = ready.back();
    ready.pop_back();
    ++processed;
    // All predecessors are final here (Kahn order), so start_ms[id] is the
    // true start and the hooks see committed times.
    const double duration =
        duration_fn ? duration_fn(id, t.start_ms[id]) : durations_[id];
    t.end_ms[id] = t.start_ms[id] + duration;
    t.makespan_ms = std::max(t.makespan_ms, t.end_ms[id]);
    for (int e : out[id]) {
      const Edge& edge = edges_[e];
      const double lag =
          lag_fn ? lag_fn(e, edge.lag_ms, t.end_ms[id]) : edge.lag_ms;
      const double candidate = t.end_ms[id] + lag;
      int& binding = t.binding_pred[edge.to];
      if (candidate > t.start_ms[edge.to] ||
          (candidate == t.start_ms[edge.to] &&
           (binding < 0 || ranks_[id] > ranks_[binding]))) {
        t.start_ms[edge.to] = candidate;
        binding = id;
      }
      if (--indegree[edge.to] == 0) ready.push_back(edge.to);
    }
  }
  if (processed != n) {
    throw std::logic_error("task graph has a cycle");
  }
  return t;
}

ScheduleGraph build_schedule_graph(const core::Schedule& schedule) {
  core::validate(schedule);
  const int n = schedule.num_stages;
  const int last_global = schedule.chunks * n - 1;

  ScheduleGraph sg;
  TaskGraph& graph = sg.graph;
  // Each op has at most one serialization and one transfer predecessor.
  int total = 0;
  for (const auto& ops : schedule.order) total += static_cast<int>(ops.size());
  graph.reserve(total, 2 * total);
  sg.ops.reserve(total);
  sg.edge_boundary.reserve(2 * total);
  const auto add_dep = [&](int from, int to, double lag, int boundary) {
    graph.add_dep(from, to, lag);
    sg.edge_boundary.push_back(boundary);
  };

  std::map<OpKey, int> task_of;
  // Pass 1: one task per op at its base cost, chained in device order.
  for (int dev = 0; dev < n; ++dev) {
    int prev = -1;
    for (const core::ScheduleOp& op : schedule.order[dev]) {
      const int id = graph.add_task(schedule.op_duration_ms(dev, op), dev);
      const OpKey key{schedule.global_stage(dev, op.chunk),
                      static_cast<int>(op.type), op.micro_batch, op.half};
      if (!task_of.emplace(key, id).second) {
        throw std::logic_error("duplicate op across devices");
      }
      sg.ops.push_back(op);
      if (prev >= 0) add_dep(prev, id, 0.0, -1);
      prev = id;
    }
  }

  auto find = [&](int global, core::OpType type, int mb, int half) {
    const auto it =
        task_of.find({global, static_cast<int>(type), mb, half});
    return it == task_of.end() ? -1 : it->second;
  };

  // Pass 2: cross-stage transfer edges. Per-boundary transfer times come
  // from the schedule itself: the builders freeze the CommModel's prices
  // into Schedule::boundary_comm_ms, so heterogeneous interconnects
  // (intra-node PCIe vs inter-node InfiniBand) need no override here.
  for (int id = 0; id < graph.size(); ++id) {
    const core::ScheduleOp& op = sg.ops[id];
    const int global = schedule.global_stage(graph.rank(id), op.chunk);
    if (op.type == core::OpType::Forward && global > 0) {
      const double whole_hop = schedule.hop_ms(global - 1);
      int producer = find(global - 1, core::OpType::Forward, op.micro_batch,
                          op.half);
      double lag = op.is_half() ? whole_hop / 2.0 : whole_hop;
      if (producer >= 0 && op.half == 0 && sg.ops[producer].aggregated_comm) {
        // §III-C: the producer defers the first-half transfer and ships both
        // halves after the second half completes, as one full-size message.
        const int second =
            find(global - 1, core::OpType::Forward, op.micro_batch, 1);
        if (second >= 0) {
          producer = second;
          lag = whole_hop;
        }
      }
      if (producer < 0) {
        throw std::logic_error("forward op has no upstream producer");
      }
      add_dep(producer, id, lag, global - 1);
    }
    if ((op.type == core::OpType::Backward ||
         op.type == core::OpType::BackwardInput) &&
        global < last_global) {
      // The dx producer downstream: the same backward form, falling back to
      // the other form so fused and split stages can coexist in one
      // schedule. BackwardWeight is local and adds no cross-stage edge.
      const double whole_hop = schedule.hop_ms(global);
      int producer = find(global + 1, op.type, op.micro_batch, op.half);
      if (producer < 0) {
        producer = find(global + 1,
                        op.type == core::OpType::Backward
                            ? core::OpType::BackwardInput
                            : core::OpType::Backward,
                        op.micro_batch, op.half);
      }
      if (producer < 0) {
        throw std::logic_error("backward op has no downstream producer");
      }
      add_dep(producer, id, op.is_half() ? whole_hop / 2.0 : whole_hop,
              global);
    }
  }
  return sg;
}

}  // namespace autopipe::sim
