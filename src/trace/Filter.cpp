//===- trace/Filter.cpp - Trace slicing -----------------------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/Filter.h"
#include "trace/EventWalker.h"

using namespace lima;
using namespace lima::trace;

namespace {

/// Appends each outermost region instance — the stream positions from
/// its enter to its exit, nested regions included — to Result when the
/// outermost region is allowlisted and the instance lies in the window.
struct InstanceFilter : WalkSink {
  const FilterOptions &Options;
  const std::vector<bool> &KeepRegion;
  const Trace &T;
  Trace &Result;
  size_t Start = 0;
  bool InstanceKept = false;

  size_t regionEnter(const Event &E, const WalkState &S) {
    if (S.Stack.size() == 1) {
      Start = S.Index - 1;
      InstanceKept = KeepRegion[E.Id] && E.Time >= Options.TimeBegin;
    }
    return 0;
  }
  void regionExit(const Event &E, const WalkState &S) {
    if (!S.Stack.empty() || !InstanceKept || !(E.Time <= Options.TimeEnd))
      return;
    for (size_t Pos = Start; Pos != S.Index; ++Pos) {
      Event Kept = T.events(S.Proc)[Pos];
      if (Options.KeepMessages || (Kept.Kind != EventKind::MessageSend &&
                                   Kept.Kind != EventKind::MessageRecv))
        Result.append(Kept);
    }
  }
};

} // namespace

Expected<Trace> trace::filterTrace(const Trace &T,
                                   const FilterOptions &Options) {
  // Structural errors outrank bad options.
  auto reject = [&T](Error OptionErr) -> Error {
    if (auto Err = T.validate()) {
      OptionErr.consume();
      return Err;
    }
    return OptionErr;
  };
  if (!(Options.TimeBegin <= Options.TimeEnd))
    return reject(makeStringError("filter window is empty"));

  // Resolve the region-name allowlist to ids.
  std::vector<bool> KeepRegion(T.numRegions(), Options.Regions.empty());
  for (const std::string &Name : Options.Regions) {
    uint32_t Id = T.findRegion(Name);
    if (Id == Trace::InvalidId)
      return reject(
          makeStringError("filter: unknown region '%s'", Name.c_str()));
    KeepRegion[Id] = true;
  }

  Trace Result(T.numProcs());
  for (const std::string &Name : T.regionNames())
    Result.addRegion(Name);
  for (const std::string &Name : T.activityNames())
    Result.addActivity(Name);

  InstanceFilter Sink{{}, Options, KeepRegion, T, Result};
  if (auto Err = walkTrace(T, Sink))
    return Err;
  return Result;
}
