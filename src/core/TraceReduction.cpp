//===- core/TraceReduction.cpp - Trace to measurement cube ----------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/TraceReduction.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"
#include "trace/EventWalker.h"

using namespace lima;
using namespace lima::core;

namespace {

/// Adds each closed activity interval to its innermost region's cell;
/// a processor's events touch only that processor's cells.
struct FoldSink : trace::WalkSink {
  MeasurementCube &Cube;
  void activityEnd(const trace::Event &E, const trace::WalkState &S,
                   uint32_t Activity, double Begin) {
    Cube.accumulate(S.Stack.back().Region, Activity, E.Proc, E.Time - Begin);
  }
};

} // namespace

Expected<MeasurementCube> core::reduceTrace(const trace::Trace &T,
                                            const ReductionOptions &Options) {
  if (T.numRegions() == 0 || T.numActivities() == 0) {
    // Structural errors outrank the missing declarations.
    if (Options.Mode == ParseMode::Strict)
      if (auto Err = T.validate())
        return Err;
    return makeCodedError(ErrorCode::MissingSection,
                          T.numRegions() == 0 ? "trace declares no regions"
                                              : "trace declares no activities");
  }

  LIMA_STAGE("reduce");
  MeasurementCube Cube(T.regionNames(), T.activityNames(), T.numProcs());

  // Shard per processor: each worker folds one stream into its own cube
  // column and the walk merges per-processor outcomes in processor
  // order, so cube, error and drop counts are bit-identical at any
  // thread count.
  trace::TraceWalk Walk(T, Options.Mode, Options.Report);
  parallelFor(T.numProcs(), Options.Threads, [&](size_t Proc) {
    LIMA_SPAN("reduce.shard");
    LIMA_COUNTER_ADD("reduce.events", T.events(Proc).size());
    LIMA_METRIC_COUNT("lima.reduce.events_total", T.events(Proc).size());
    FoldSink Sink{{}, Cube};
    Walk.walk(static_cast<unsigned>(Proc), Sink);
  });
  if (auto Err = Walk.finish())
    return Err;

  // The cube reports per-processor-mean aggregates, so the matching
  // program total is the plain trace span (the program's duration).
  Cube.setProgramTime(Walk.span());
  return Cube;
}
