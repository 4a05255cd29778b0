#include <gtest/gtest.h>

#include "sim/event_engine.h"

namespace autopipe::sim {
namespace {

TEST(TaskGraph, EmptyGraph) {
  TaskGraph g;
  const auto t = g.run();
  EXPECT_DOUBLE_EQ(t.makespan_ms, 0.0);
  EXPECT_TRUE(t.start_ms.empty());
}

TEST(TaskGraph, ChainAccumulates) {
  TaskGraph g;
  const int a = g.add_task(2.0);
  const int b = g.add_task(3.0);
  const int c = g.add_task(1.0);
  g.add_dep(a, b, 0.5);
  g.add_dep(b, c, 0.0);
  const auto t = g.run();
  EXPECT_DOUBLE_EQ(t.start_ms[a], 0.0);
  EXPECT_DOUBLE_EQ(t.start_ms[b], 2.5);
  EXPECT_DOUBLE_EQ(t.start_ms[c], 5.5);
  EXPECT_DOUBLE_EQ(t.makespan_ms, 6.5);
  EXPECT_EQ(t.binding_pred[c], b);
  EXPECT_EQ(t.binding_pred[a], -1);
}

TEST(TaskGraph, DiamondTakesLongestPath) {
  TaskGraph g;
  const int src = g.add_task(1.0);
  const int fast = g.add_task(1.0);
  const int slow = g.add_task(5.0);
  const int sink = g.add_task(1.0);
  g.add_dep(src, fast);
  g.add_dep(src, slow);
  g.add_dep(fast, sink);
  g.add_dep(slow, sink);
  const auto t = g.run();
  EXPECT_DOUBLE_EQ(t.start_ms[sink], 6.0);
  EXPECT_EQ(t.binding_pred[sink], slow);
}

TEST(TaskGraph, EqualArrivalsBindTheHigherRank) {
  // Two predecessors whose arrivals tie at 3.0. Ready sources are relaxed
  // in reverse creation order, so creating them (and inserting their edges)
  // in both orders relaxes either one first; the higher-ranked predecessor
  // binds both times.
  for (const bool high_first : {false, true}) {
    TaskGraph g;
    int low = -1;
    int high = -1;
    if (high_first) {
      high = g.add_task(1.0, /*rank=*/1);
      low = g.add_task(2.0, /*rank=*/0);
    } else {
      low = g.add_task(2.0, /*rank=*/0);
      high = g.add_task(1.0, /*rank=*/1);
    }
    const int sink = g.add_task(1.0);
    g.add_dep(high_first ? high : low, sink, high_first ? 2.0 : 1.0);
    g.add_dep(high_first ? low : high, sink, high_first ? 1.0 : 2.0);
    const auto t = g.run();
    EXPECT_EQ(t.start_ms[sink], 3.0);
    EXPECT_EQ(t.binding_pred[sink], high) << "high_first=" << high_first;
  }
  // Zero duration, zero lag: both arrivals equal the start at 0 and still
  // bind, again to the higher rank in either order.
  for (const bool high_first : {false, true}) {
    TaskGraph g;
    const int first = g.add_task(0.0, /*rank=*/high_first ? 5 : 2);
    const int second = g.add_task(0.0, /*rank=*/high_first ? 2 : 5);
    const int sink = g.add_task(1.0, /*rank=*/3);
    g.add_dep(first, sink);
    g.add_dep(second, sink);
    const auto t = g.run();
    EXPECT_EQ(t.start_ms[sink], 0.0);
    EXPECT_EQ(t.binding_pred[sink], high_first ? first : second)
        << "high_first=" << high_first;
    EXPECT_EQ(t.binding_pred[first], -1);
  }
}

TEST(TaskGraph, IndependentTasksStartAtZero) {
  TaskGraph g;
  const int a = g.add_task(4.0);
  const int b = g.add_task(2.0);
  const auto t = g.run();
  EXPECT_DOUBLE_EQ(t.start_ms[a], 0.0);
  EXPECT_DOUBLE_EQ(t.start_ms[b], 0.0);
  EXPECT_DOUBLE_EQ(t.makespan_ms, 4.0);
}

TEST(TaskGraph, DetectsCycle) {
  TaskGraph g;
  const int a = g.add_task(1.0);
  const int b = g.add_task(1.0);
  g.add_dep(a, b);
  g.add_dep(b, a);
  EXPECT_THROW(g.run(), std::logic_error);
}

TEST(TaskGraph, RejectsBadEdges) {
  TaskGraph g;
  const int a = g.add_task(1.0);
  EXPECT_THROW(g.add_dep(a, a), std::logic_error);
  EXPECT_THROW(g.add_dep(a, 7), std::logic_error);
  EXPECT_THROW(g.add_dep(-1, a), std::logic_error);
}

TEST(TaskGraph, SetDurationChangesSchedule) {
  TaskGraph g;
  const int a = g.add_task(1.0);
  const int b = g.add_task(1.0);
  g.add_dep(a, b);
  g.set_duration(a, 10.0);
  EXPECT_DOUBLE_EQ(g.duration(a), 10.0);
  const auto t = g.run();
  EXPECT_DOUBLE_EQ(t.start_ms[b], 10.0);
}

TEST(TaskGraph, LagsAreAdditivePerEdge) {
  TaskGraph g;
  const int a = g.add_task(1.0);
  const int b = g.add_task(1.0);
  g.add_dep(a, b, 2.0);
  g.add_dep(a, b, 5.0);  // two parallel edges; the bigger lag binds
  const auto t = g.run();
  EXPECT_DOUBLE_EQ(t.start_ms[b], 6.0);
}

}  // namespace
}  // namespace autopipe::sim
