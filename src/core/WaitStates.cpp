//===- core/WaitStates.cpp - Late-sender wait-state analysis --------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/WaitStates.h"
#include "trace/EventWalker.h"
#include <algorithm>
#include <deque>
#include <map>
#include <tuple>

using namespace lima;
using namespace lima::core;
using trace::Event;
using trace::EventKind;

namespace {

/// Matches each receive to the oldest send on its (from, to, bytes)
/// channel and charges the wait to the innermost open region.
struct LateSenderSink : trace::WalkSink {
  /// Send timestamps per (from, to, bytes) channel, FIFO.
  std::map<std::tuple<unsigned, unsigned, uint64_t>, std::deque<double>>
      Sends;
  WaitStateReport Report;
  std::map<std::pair<unsigned, unsigned>, ChannelWait> Channels;

  void message(const Event &E, const trace::WalkState &S) {
    if (E.Kind != EventKind::MessageRecv)
      return;
    ++Report.TotalReceives;
    auto &Queue = Sends[{E.Id, E.Proc, E.Bytes}];
    // An unmatched receive fails the walk's message balance.
    if (Queue.empty())
      return;
    double SendTime = Queue.front();
    Queue.pop_front();
    // The receive call time is the enclosing p2p activity's begin
    // (receives outside an activity bracket have no measurable
    // blocking interval and are skipped).
    if (!S.activityOpen())
      return;
    double Wait = SendTime - S.ActivityBegin;
    if (Wait <= 0.0)
      return;
    ++Report.LateReceives;
    Report.TotalLateSender += Wait;
    Report.LateSender.accumulate(S.Stack.back().Region, 0, E.Proc, Wait);
    ChannelWait &Channel = Channels[{E.Id, E.Proc}];
    Channel.From = E.Id;
    Channel.To = E.Proc;
    Channel.Seconds += Wait;
    ++Channel.Messages;
  }
};

} // namespace

Expected<WaitStateReport> core::analyzeWaitStates(const trace::Trace &T) {
  LateSenderSink Sink;
  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc)
    for (const Event &E : T.events(Proc))
      if (E.Kind == EventKind::MessageSend)
        Sink.Sends[{Proc, E.Id, E.Bytes}].push_back(E.Time);
  WaitStateReport &Report = Sink.Report;
  Report.LateSender = MeasurementCube(
      T.regionNames(), {"late-sender"}, T.numProcs());
  if (auto Err = trace::walkTrace(T, Sink))
    return Err;

  for (const auto &[Key, Channel] : Sink.Channels)
    Report.Channels.push_back(Channel);
  std::stable_sort(Report.Channels.begin(), Report.Channels.end(),
                   [](const ChannelWait &A, const ChannelWait &B) {
                     return A.Seconds > B.Seconds;
                   });
  return std::move(Report);
}
