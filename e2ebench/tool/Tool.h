//===- e2ebench/tool/Tool.h - end-to-end benchmark helper -------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the lima_e2e helper: the subcommand entry points and
/// the wall-clock accounting the traced replicas use.  Times come from
/// std::chrono::steady_clock (CLOCK_MONOTONIC on Linux), the clock the
/// time.monotonic_ns() in run.py reads, so timestamps taken here
/// and in run.py can be subtracted.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_E2EBENCH_TOOL_H
#define LIMA_E2EBENCH_TOOL_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline int64_t monoNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Named millisecond accumulators, kept in first-use order so the
/// timings file lists layers in pipeline order.
class Layers {
public:
  double &operator[](const std::string &Name) {
    for (auto &[Key, Ms] : Entries)
      if (Key == Name)
        return Ms;
    Entries.emplace_back(Name, 0.0);
    return Entries.back().second;
  }

  /// Runs \p F, adds its wall time to layer \p Name, and returns F's
  /// result.
  template <typename Fn> decltype(auto) time(const std::string &Name, Fn &&F) {
    struct Stop {
      double &Acc;
      Clock::time_point T0;
      ~Stop() { Acc += msSince(T0); }
    } S{(*this)[Name], Clock::now()};
    return F();
  }

  /// {"name": ms, ...}
  std::string json() const;

private:
  std::vector<std::pair<std::string, double>> Entries;
};

/// Minimal JSON helpers for the timings files.
std::string jsonNumber(double V);
std::string jsonString(const std::string &S);

int runGenerate(int Argc, char **Argv);
int runOracle(int Argc, char **Argv);
int runCalibrate(int Argc, char **Argv);
int runTracedAnalyze(int Argc, char **Argv);
int runTracedMonitor(int Argc, char **Argv);

} // namespace e2e

#endif // LIMA_E2EBENCH_TOOL_H
