//===- core/CountingReduction.cpp - Counting-parameter cubes --------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/CountingReduction.h"
#include "support/Compiler.h"
#include "trace/EventWalker.h"

using namespace lima;
using namespace lima::core;
using trace::Event;
using trace::EventKind;

std::string_view core::countingMetricName(CountingMetric Metric) {
  switch (Metric) {
  case CountingMetric::MessagesSent:
    return "messages-sent";
  case CountingMetric::BytesSent:
    return "bytes-sent";
  case CountingMetric::MessagesReceived:
    return "messages-received";
  case CountingMetric::BytesReceived:
    return "bytes-received";
  }
  lima_unreachable("unknown CountingMetric");
}

namespace {

/// Counts each wanted message endpoint (or its bytes) into the
/// innermost open region.
struct CountSink : trace::WalkSink {
  MeasurementCube &Cube;
  EventKind Wanted;
  bool WantBytes;

  void message(const Event &E, const trace::WalkState &S) {
    if (E.Kind != Wanted || S.Stack.empty())
      return;
    Cube.accumulate(S.Stack.back().Region, 0, E.Proc,
                    WantBytes ? static_cast<double>(E.Bytes) : 1.0);
  }
};

} // namespace

Expected<MeasurementCube> core::reduceTraceCounts(const trace::Trace &T,
                                                  CountingMetric Metric) {
  if (T.numRegions() == 0) {
    if (auto Err = T.validate())
      return Err;
    return makeStringError("trace declares no regions");
  }

  bool WantSend = Metric == CountingMetric::MessagesSent ||
                  Metric == CountingMetric::BytesSent;
  bool WantBytes = Metric == CountingMetric::BytesSent ||
                   Metric == CountingMetric::BytesReceived;

  MeasurementCube Cube(T.regionNames(),
                       {std::string(countingMetricName(Metric))},
                       T.numProcs());
  EventKind Wanted = WantSend ? EventKind::MessageSend : EventKind::MessageRecv;
  CountSink Sink{{}, Cube, Wanted, WantBytes};
  if (auto Err = trace::walkTrace(T, Sink))
    return Err;
  return Cube;
}
