//===- e2ebench/tool/TracedAnalyze.cpp - lima_analyze, timed per layer ----===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Replays examples/lima_analyze.cpp's call sequence for the options the
// benchmark passes (--threads and the six analysis flags; the default
// --index and --clusters; no --csv, --timeline, --quiet, --http, filters,
// HTML or self-profile) and times
// each call into the layer it belongs to.  Its stdout must equal
// lima_analyze's byte for byte; run.py checks that against the same
// golden, so the replica cannot drift from the tool it accounts for.
//
// Two calls are split so their parts land in their own layers:
//  - loadTraceAuto = MappedFile::open (trace.map_ms, with the unmap) +
//    parseTraceText/BinaryParallel (trace.parse_ms / trace.decode_ms);
//  - strict reduceTrace = Trace::validate (trace.validate_ms) + the
//    lenient fold (core.reduce_ms), which is the strict fold minus the
//    validation for a trace that validates.
// Whatever the process spends outside these calls (exec, dynamic
// loading, argument parsing, exit) is run.py's other_ms.
//
//===----------------------------------------------------------------------===//

#include "Tool.h"
#include "core/CountingReduction.h"
#include "core/Diagnosis.h"
#include "core/PhaseAnalysis.h"
#include "core/Pipeline.h"
#include "core/Report.h"
#include "core/TraceReduction.h"
#include "core/WaitStates.h"
#include "stats/Dispersion.h"
#include "support/CommandLine.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/Log.h"
#include "support/MappedFile.h"
#include "support/raw_ostream.h"
#include "trace/ParallelBinary.h"
#include "trace/ParallelParse.h"
#include "trace/TraceStats.h"
#include <cstring>
#include <optional>

using namespace lima;
using namespace e2e;

int e2e::runTracedAnalyze(int Argc, char **Argv) {
  ExitOnError ExitOnErr("lima_e2e traced-analyze: ");
  ArgParser Parser("lima_e2e traced-analyze",
                   "lima_analyze's pipeline with per-layer wall times");
  Parser.addPositional("trace", "path to the trace file");
  Parser.addOption("threads", "worker threads (0 = all hardware threads)",
                   "0");
  Parser.addOption("timings", "write the layer timings JSON here", "");
  Parser.addFlag("patterns", "also print the pattern diagrams");
  Parser.addFlag("diagnose", "run the rule-based diagnosis");
  Parser.addFlag("phases", "per-instance (temporal) indices per region");
  Parser.addFlag("counting", "also analyze message-count imbalance");
  Parser.addFlag("waitstates", "late-sender wait-state analysis");
  Parser.addFlag("traffic", "print the communication matrix");
  ExitOnErr(Parser.parse(Argc, Argv));
  // lima_analyze's default --log-level and log format.
  logging::setLevel(logging::Level::Info);
  logging::setJson(false);

  Layers L;
  unsigned Threads = static_cast<unsigned>(Parser.getUnsigned("threads"));
  ParseOptions Parse;

  // loadTraceAuto, split at its map/parse boundary.
  std::optional<MappedFile> File;
  L.time("trace.map_ms", [&] {
    File.emplace(ExitOnErr(MappedFile::open(Parser.getPositionals()[0])));
  });
  std::string_view Data = File->view();
  uint64_t Bytes = Data.size();
  bool Binary = Data.size() >= 4 && std::memcmp(Data.data(), "LIMB", 4) == 0;
  std::optional<trace::Trace> Trace;
  if (Binary)
    L.time("trace.decode_ms", [&] {
      Trace.emplace(
          ExitOnErr(trace::parseTraceBinaryParallel(Data, Parse, Threads)));
    });
  else
    L.time("trace.parse_ms", [&] {
      Trace.emplace(
          ExitOnErr(trace::parseTraceTextParallel(Data, Parse, Threads)));
    });
  L.time("trace.map_ms", [&] { File.reset(); });

  // Strict reduceTrace, split into its validation and its fold.
  L.time("trace.validate_ms", [&] { ExitOnErr(Trace->validate()); });
  core::ReductionOptions Reduction;
  Reduction.Threads = Threads;
  Reduction.Mode = ParseMode::Lenient;
  core::MeasurementCube Cube = L.time(
      "core.reduce_ms", [&] { return ExitOnErr(core::reduceTrace(*Trace,
                                                                 Reduction)); });

  core::AnalysisOptions Options;
  // lima_analyze's defaults for --index and --clusters.
  Options.Views.Kind = stats::DispersionKind::Euclidean;
  Options.Clusters = 2;
  Options.Threads = Threads;
  core::AnalysisResult Result = L.time(
      "core.analyze_ms", [&] { return ExitOnErr(core::analyze(Cube, Options)); });

  raw_ostream &OS = outs();
  auto emit = [&](const TextTable &Table) {
    Table.print(OS);
    OS << '\n';
  };
  const std::string Render = "core.render_ms";
  L.time(Render, [&] {
    emit(core::makeRegionBreakdownTable(Cube, Result.Profile));
    emit(core::makeDissimilarityTable(Cube, Result.Activities));
    emit(core::makeActivityViewTable(Cube, Result.Activities));
    emit(core::makeRegionViewTable(Cube, Result.Regions));
    emit(core::makeProcessorViewTable(Cube, Result.Processors));
  });

  if (Parser.getFlag("patterns"))
    L.time(Render, [&] {
      for (const core::PatternDiagram &Diagram : Result.Patterns)
        OS << core::renderPatternASCII(Diagram, Cube) << '\n';
    });

  if (Parser.getFlag("traffic")) {
    trace::TraceStats Stats = L.time("trace.stats_ms", [&] {
      return trace::computeTraceStats(*Trace, Threads);
    });
    L.time(Render,
           [&] { OS << trace::renderCommunicationMatrix(Stats) << '\n'; });
  }

  if (Parser.getFlag("phases")) {
    core::PhaseResult Phases = L.time("core.phases_ms", [&] {
      return ExitOnErr(core::analyzePhases(*Trace));
    });
    L.time(Render, [&] {
      OS << "per-instance dissimilarity (one sparkline per region):\n";
      for (const core::PhaseSeries &Series : Phases.Series) {
        if (Series.InstanceIndex.empty())
          continue;
        core::Trend T = core::linearTrend(Series.InstanceIndex);
        OS << "  " << leftJustify(Cube.regionName(Series.Region), 16) << ' '
           << core::renderSparkline(Series.InstanceIndex) << "  trend "
           << formatFixed(T.RelativeSlope * 100.0, 1) << "%/instance\n";
      }
      OS << '\n';
    });
  }

  if (Parser.getFlag("counting")) {
    std::optional<core::MeasurementCube> Counts;
    core::RegionView CountView = L.time("core.counting_ms", [&] {
      Counts.emplace(ExitOnErr(core::reduceTraceCounts(
          *Trace, core::CountingMetric::MessagesSent)));
      return core::computeRegionView(*Counts);
    });
    L.time(Render, [&] {
      OS << "message-count imbalance per region (ID_C on counts):\n";
      for (size_t I = 0; I != Counts->numRegions(); ++I)
        OS << "  " << leftJustify(Counts->regionName(I), 16) << ' '
           << formatFixed(CountView.Index[I], 5) << '\n';
      OS << '\n';
    });
  }

  if (Parser.getFlag("waitstates")) {
    core::WaitStateReport Waits = L.time("core.waitstates_ms", [&] {
      return ExitOnErr(core::analyzeWaitStates(*Trace));
    });
    L.time(Render, [&] {
      OS << "late-sender wait states: "
         << formatFixed(Waits.TotalLateSender, 3) << " s across "
         << Waits.LateReceives << " of " << Waits.TotalReceives
         << " receives\n";
      unsigned Shown = 0;
      for (const core::ChannelWait &Channel : Waits.Channels) {
        if (++Shown > 5)
          break;
        OS << "  p" << Channel.From + 1 << " -> p" << Channel.To + 1 << ": "
           << formatFixed(Channel.Seconds, 3) << " s over "
           << Channel.Messages << " messages\n";
      }
      OS << '\n';
    });
  }

  L.time(Render, [&] {
    if (Result.HasClusters)
      OS << core::describeClusters(Cube, Result.Clusters) << '\n';
    OS << core::summarizeFindings(Cube, Result.Profile, Result.Activities,
                                  Result.Regions, Result.Processors);
  });

  if (Parser.getFlag("diagnose")) {
    std::vector<core::Diagnosis> Found = L.time(
        "core.diagnose_ms", [&] { return core::diagnose(Cube, Result); });
    L.time(Render, [&] {
      OS << "\nautomatic diagnosis:\n" << core::renderDiagnoses(Cube, Found);
    });
  }

  L.time(Render, [&] { OS.flush(); });
  L.time("trace.free_ms", [&] { Trace.reset(); });

  std::string Json = "{\"layers\": " + L.json() +
                     ", \"bytes\": " + std::to_string(Bytes) +
                     ", \"binary\": " + (Binary ? "true" : "false") +
                     ", \"threads\": " + std::to_string(Threads) + "}\n";
  if (!Parser.getString("timings").empty())
    ExitOnErr(writeFile(Parser.getString("timings"), Json));
  return 0;
}
