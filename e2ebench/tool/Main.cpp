//===- e2ebench/tool/Main.cpp - lima_e2e subcommand dispatch --------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The helper behind e2ebench/run.py.  The product binaries (lima_analyze,
// lima_monitor) are never replaced by it: it only makes their inputs,
// the oracles their outputs are checked against, and the traced
// replicas that split a run's wall clock into layers.
//
//   lima_e2e generate        seeded CFD trace as text, LIMB v2, interleaved
//   lima_e2e oracle          expected /events frames and closing chunks
//   lima_e2e calibrate       nproc-thread spin -> delivered parallelism
//   lima_e2e traced-analyze  lima_analyze's call sequence, timed per layer
//   lima_e2e traced-monitor  lima_monitor's loop, timed per layer
//
//===----------------------------------------------------------------------===//

#include "Tool.h"
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace e2e;

std::string e2e::Layers::json() const {
  std::string Out = "{";
  for (size_t I = 0; I != Entries.size(); ++I) {
    if (I)
      Out += ", ";
    Out += jsonString(Entries[I].first) + ": " + jsonNumber(Entries[I].second);
  }
  return Out + "}";
}

std::string e2e::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

std::string e2e::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

int main(int Argc, char **Argv) {
  struct Command {
    const char *Name;
    int (*Run)(int, char **);
  };
  static const Command Commands[] = {
      {"generate", runGenerate},
      {"oracle", runOracle},
      {"calibrate", runCalibrate},
      {"traced-analyze", runTracedAnalyze},
      {"traced-monitor", runTracedMonitor},
  };
  if (Argc >= 2)
    for (const Command &C : Commands)
      if (std::strcmp(Argv[1], C.Name) == 0)
        return C.Run(Argc - 1, Argv + 1);
  std::fprintf(stderr, "usage: lima_e2e <command> [options]; commands:");
  for (const Command &C : Commands)
    std::fprintf(stderr, " %s", C.Name);
  std::fprintf(stderr, "\n");
  return 2;
}
