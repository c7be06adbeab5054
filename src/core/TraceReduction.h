//===- core/TraceReduction.h - Trace to measurement cube --------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Post-mortem reduction of an event trace to the measurement cube: for
/// every processor, activity intervals are attributed to the enclosing
/// code region.  This is the "analyzing the performance measures post
/// mortem" step of the paper's experimental approach.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_CORE_TRACEREDUCTION_H
#define LIMA_CORE_TRACEREDUCTION_H

#include "core/Measurement.h"
#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Trace.h"

namespace lima {
namespace core {

/// Options for reduceTrace.
struct ReductionOptions {
  /// Worker threads for the per-processor reduction shards (0 = all
  /// hardware threads, 1 = serial).  Results are bit-identical at any
  /// setting: each processor's stream folds into disjoint cube cells.
  unsigned Threads = 0;
  /// Strict: the first structurally impossible event aborts the
  /// reduction.  Lenient: such events are skipped (the fold continues
  /// with the surrounding structure intact) and counted into Report, and
  /// message balance is not checked — one bad event no longer kills a
  /// million-event analysis.
  ParseMode Mode = ParseMode::Strict;
  /// Receives dropped-event counts in lenient mode.  Per-processor
  /// shard reports are merged in processor order, so counts are
  /// deterministic at any thread count.
  ParseReport *Report = nullptr;
};

/// Reduces \p T to a cube with one region per trace region, one activity
/// per trace activity and one column per processor, attributing activity
/// intervals to the innermost open region; program time is the trace
/// span.  Strict mode validates while folding and fails with
/// Trace::validate()'s error; lenient mode drops and counts instead.
Expected<MeasurementCube> reduceTrace(const trace::Trace &T,
                                      const ReductionOptions &Options = {});

} // namespace core
} // namespace lima

#endif // LIMA_CORE_TRACEREDUCTION_H
