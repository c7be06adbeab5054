//===- tests/EventWalkerTest.cpp - Per-processor walker tests -------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "trace/EventWalker.h"
#include <gtest/gtest.h>
#include <string>
#include <tuple>
#include <vector>

using namespace lima;
using namespace lima::trace;
using lima::testutil::messageOf;

namespace {

/// (region, frame tag, activity, begin, end) of one closed interval.
using Interval = std::tuple<uint32_t, size_t, uint32_t, double, double>;

/// Tags each frame with its entry order and records closed intervals.
struct RecordingSink : WalkSink {
  size_t Entered = 0;
  std::vector<Interval> Intervals;

  size_t regionEnter(const Event &, const WalkState &) { return Entered++; }
  void activityEnd(const Event &E, const WalkState &S, uint32_t Activity,
                   double Begin) {
    const WalkFrame &Frame = S.Stack.back();
    Intervals.emplace_back(Frame.Region, Frame.Tag, Activity, Begin, E.Time);
  }
};

} // namespace

TEST(EventWalkerTest, IntervalsGoToTheInnermostFrame) {
  // Region 0 recurses into itself; time after the inner instance exits
  // belongs to the outer instance again.
  Trace T(1);
  T.addRegion("r");
  T.addActivity("a");
  for (Event E : std::vector<Event>{{0.0, 0, EventKind::RegionEnter, 0, 0},
                                    {1.0, 0, EventKind::RegionEnter, 0, 0},
                                    {1.0, 0, EventKind::ActivityBegin, 0, 0},
                                    {2.0, 0, EventKind::ActivityEnd, 0, 0},
                                    {2.0, 0, EventKind::RegionExit, 0, 0},
                                    {2.0, 0, EventKind::ActivityBegin, 0, 0},
                                    {4.0, 0, EventKind::ActivityEnd, 0, 0},
                                    {4.0, 0, EventKind::RegionExit, 0, 0}})
    T.append(E);
  RecordingSink Sink;
  ASSERT_FALSE(walkTrace(T, Sink));
  EXPECT_EQ(Sink.Intervals, (std::vector<Interval>{{0, 1, 0, 1.0, 2.0},
                                                   {0, 0, 0, 2.0, 4.0}}));
}

TEST(EventWalkerTest, ShardedWalkReportsTheFirstProcessorsError) {
  // Processors 1 and 3 are malformed; walking them in any order must
  // report processor 1's error, exactly as validate() does.
  Trace T(4);
  T.addRegion("r");
  T.addActivity("a");
  for (uint32_t P = 0; P != 4; ++P) {
    if (P % 2 == 1)
      T.append({0.0, P, EventKind::RegionExit, 0, 0});
    T.append({1.0, P, EventKind::RegionEnter, 0, 0});
    T.append({2.0, P, EventKind::RegionExit, 0, 0});
  }
  TraceWalk Walk(T, ParseMode::Strict);
  WalkSink Sink;
  for (unsigned Proc = 4; Proc-- != 0;)
    Walk.walk(Proc, Sink);
  std::string Message = messageOf(Walk.finish());
  EXPECT_EQ(Message, "proc 1 event 0: region exit without matching enter");
  EXPECT_EQ(Message, messageOf(T.validate()));
}
