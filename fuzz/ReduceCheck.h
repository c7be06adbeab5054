//===- fuzz/ReduceCheck.h - reduceTrace across thread counts ----*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arbitrary-input half of the "strict and lenient reports are
/// bit-identical at any thread count" promise: every trace a fuzz target
/// manages to parse is reduced strict and lenient at one and two
/// threads, and the two thread counts must agree on the Error code and
/// text, or on the cube's bits and the drop report.  A disagreement
/// aborts, which libFuzzer reports as a crash and the corpus replay as
/// a failed test.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_FUZZ_REDUCECHECK_H
#define LIMA_FUZZ_REDUCECHECK_H

#include "core/TraceReduction.h"
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace lima {
namespace fuzz {

/// Everything one reduceTrace run produced, as comparable bytes.
inline std::string describeReduction(const trace::Trace &T, ParseMode Mode,
                                     unsigned Threads) {
  ParseReport Report;
  core::ReductionOptions Options;
  Options.Threads = Threads;
  Options.Mode = Mode;
  Options.Report = &Report;
  auto Cube = core::reduceTrace(T, Options);
  if (!Cube) {
    Error Err = Cube.takeError();
    std::string Code = std::to_string(static_cast<int>(Err.code()));
    return "error " + Code + ": " + Err.message();
  }
  std::string Out = "cube";
  auto addBits = [&Out](const void *Data, size_t Size) {
    Out.append(static_cast<const char *>(Data), Size);
  };
  for (size_t I = 0; I != Cube->numRegions(); ++I)
    for (size_t J = 0; J != Cube->numActivities(); ++J)
      for (unsigned P = 0; P != Cube->numProcs(); ++P) {
        double Cell = Cube->time(I, J, P);
        addBits(&Cell, sizeof(Cell));
      }
  double Program = Cube->programTime();
  addBits(&Program, sizeof(Program));
  addBits(&Report.TotalRecords, sizeof(Report.TotalRecords));
  addBits(Report.DroppedByCode.data(),
          Report.DroppedByCode.size() * sizeof(Report.DroppedByCode[0]));
  for (const ParseError &Sample : Report.Samples)
    Out += "\n" + Sample.Msg;
  return Out;
}

/// Aborts unless strict and lenient reduceTrace of \p T agree between
/// one and two threads.
inline void checkReductionAcrossThreads(const trace::Trace &T) {
  for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
    std::string Serial = describeReduction(T, Mode, 1);
    if (describeReduction(T, Mode, 2) == Serial)
      continue;
    std::fprintf(stderr, "reduceTrace (%s) differs between 1 and 2 threads\n",
                 Mode == ParseMode::Strict ? "strict" : "lenient");
    std::abort();
  }
}

} // namespace fuzz
} // namespace lima

#endif // LIMA_FUZZ_REDUCECHECK_H
