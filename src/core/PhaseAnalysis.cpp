//===- core/PhaseAnalysis.cpp - Per-instance (temporal) analysis ----------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/PhaseAnalysis.h"
#include "stats/Descriptive.h"
#include "stats/Dispersion.h"
#include "support/MathUtils.h"
#include "trace/EventWalker.h"

using namespace lima;
using namespace lima::core;
using trace::Event;

namespace {

using PerInstanceTimes =
    std::vector<std::vector<std::vector<std::vector<double>>>>;

/// Tags each region frame with its instance number (the k-th entry of
/// region i on a processor is instance k) and adds activity time to the
/// innermost frame's instance, as reduceTrace does to its region.
struct InstanceSink : trace::WalkSink {
  /// [region][instance][activity][proc] accumulated times.
  PerInstanceTimes PerInstance;
  /// Instance counter per (region, proc).
  std::vector<std::vector<size_t>> InstanceCount;
  /// One instance's all-zero [activity][proc] cells.
  std::vector<std::vector<double>> NewInstance;

  size_t regionEnter(const Event &E, const trace::WalkState &) {
    size_t Instance = InstanceCount[E.Id][E.Proc]++;
    if (PerInstance[E.Id].size() <= Instance)
      PerInstance[E.Id].resize(Instance + 1, NewInstance);
    return Instance;
  }
  void activityEnd(const Event &E, const trace::WalkState &S,
                   uint32_t Activity, double Begin) {
    const trace::WalkFrame &Frame = S.Stack.back();
    PerInstance[Frame.Region][Frame.Tag][Activity][E.Proc] += E.Time - Begin;
  }
};

} // namespace

Expected<PhaseResult> core::analyzePhases(const trace::Trace &T,
                                          const ViewOptions &Options) {
  size_t N = T.numRegions();
  size_t K = T.numActivities();
  unsigned P = T.numProcs();

  InstanceSink Sink;
  Sink.PerInstance.resize(N);
  Sink.InstanceCount.assign(N, std::vector<size_t>(P, 0));
  Sink.NewInstance.assign(K, std::vector<double>(P, 0.0));
  if (auto Err = trace::walkTrace(T, Sink))
    return Err;
  const PerInstanceTimes &PerInstance = Sink.PerInstance;
  const std::vector<std::vector<size_t>> &InstanceCount = Sink.InstanceCount;

  // All processors must agree on the instance count of each region they
  // execute at all.
  for (size_t I = 0; I != N; ++I) {
    size_t Expected = 0;
    for (unsigned Proc = 0; Proc != P; ++Proc)
      Expected = std::max(Expected, InstanceCount[I][Proc]);
    for (unsigned Proc = 0; Proc != P; ++Proc)
      if (InstanceCount[I][Proc] != Expected)
        return makeStringError(
            "region '%s': processor %u executed %zu instances, others %zu "
            "(phase analysis needs SPMD-shaped traces)",
            T.regionName(static_cast<uint32_t>(I)).c_str(), Proc,
            InstanceCount[I][Proc], Expected);
  }

  PhaseResult Result;
  Result.Series.resize(N);
  for (size_t I = 0; I != N; ++I) {
    PhaseSeries &Series = Result.Series[I];
    Series.Region = I;
    for (const auto &Activities : PerInstance[I]) {
      // Weighted dispersion across processors, exactly like ID_C but
      // restricted to this instance.
      double InstanceTotal = 0.0;
      KahanSum Weighted;
      for (size_t J = 0; J != K; ++J) {
        double Tij = stats::sum(Activities[J]) / P;
        if (Tij <= 0.0)
          continue;
        InstanceTotal += Tij;
        Weighted.add(Tij *
                     stats::imbalanceIndexAs(Options.Kind, Activities[J]));
      }
      Series.InstanceIndex.push_back(
          InstanceTotal > 0.0 ? Weighted.total() / InstanceTotal : 0.0);
      Series.InstanceTime.push_back(InstanceTotal);
    }
  }
  return Result;
}

Trend core::linearTrend(const std::vector<double> &Values) {
  Trend Result;
  size_t N = Values.size();
  if (N < 2)
    return Result;
  double MeanX = static_cast<double>(N - 1) / 2.0;
  double MeanY = stats::mean(Values);
  double Num = 0.0, Den = 0.0;
  for (size_t I = 0; I != N; ++I) {
    double DX = static_cast<double>(I) - MeanX;
    Num += DX * (Values[I] - MeanY);
    Den += DX * DX;
  }
  Result.Slope = Den > 0.0 ? Num / Den : 0.0;
  Result.RelativeSlope = MeanY != 0.0 ? Result.Slope / MeanY : 0.0;
  return Result;
}

std::string core::renderSparkline(const std::vector<double> &Values) {
  static const char Levels[] = ".:-=+*#%@";
  constexpr size_t NumLevels = sizeof(Levels) - 1;
  if (Values.empty())
    return "";
  double Lo = stats::minimum(Values);
  double Hi = stats::maximum(Values);
  std::string Out;
  Out.reserve(Values.size());
  for (double V : Values) {
    size_t Level = 0;
    if (Hi > Lo)
      Level = std::min(NumLevels - 1,
                       static_cast<size_t>((V - Lo) / (Hi - Lo) *
                                           (NumLevels - 1) +
                                           0.5));
    Out += Levels[Level];
  }
  return Out;
}
