//===- e2ebench/tool/Prepare.cpp - inputs, oracles, calibration -----------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// generate: one seeded CFD run through the public lima_cfd / lima_sim
// API, written as the files the product sees (text, LIMB v2, a minimal
// trace of each format for set-up timing, and a time-interleaved text
// copy for the monitor, which only closes windows on interleaved input).
//
// oracle: what lima_monitor must put on /events for the interleaved
// trace — every window frame from a batch WindowedAnalyzer::addTrace —
// and, replaying the file the way the monitor reads it, which append
// chunk makes each window closable.
//
// calibrate: a fixed spin on one thread and then on N threads; their
// ratio is the parallelism the machine delivered.
//
//===----------------------------------------------------------------------===//

#include "Tool.h"
#include "apps/cfd/Cfd.h"
#include "core/Dashboard.h"
#include "core/WindowHistory.h"
#include "core/WindowedAnalysis.h"
#include "support/CommandLine.h"
#include "support/Error.h"
#include "support/FileUtils.h"
#include "support/RNG.h"
#include "trace/BinaryIO.h"
#include "trace/StreamParser.h"
#include "trace/TraceIO.h"
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <queue>
#include <thread>

using namespace lima;
using namespace e2e;

namespace {

[[noreturn]] void fail(const char *Message) {
  std::fprintf(stderr, "lima_e2e: %s\n", Message);
  std::exit(1);
}

struct Interleaved {
  std::string Text;
  size_t HeaderBytes = 0; ///< Declarations only: a valid empty trace.
  size_t HalfOffset = 0;  ///< Start of event line NumEvents/2.
};

/// Rewrites writeTraceText's processor-grouped output in global time
/// order (ties by processor), reusing its event lines verbatim.
Interleaved interleave(const trace::Trace &T, const std::string &Text) {
  // Line starts, header first.
  std::vector<size_t> Starts;
  Starts.reserve(T.numEvents() + 64);
  for (size_t Pos = 0; Pos < Text.size();) {
    Starts.push_back(Pos);
    const void *Nl = std::memchr(Text.data() + Pos, '\n', Text.size() - Pos);
    Pos = Nl ? static_cast<size_t>(static_cast<const char *>(Nl) -
                                   Text.data()) + 1
             : Text.size();
  }
  Starts.push_back(Text.size());
  size_t HeaderLines = 2 + T.numRegions() + T.numActivities();

  std::vector<size_t> FirstLine(T.numProcs());
  size_t Line = HeaderLines;
  for (unsigned P = 0; P != T.numProcs(); ++P) {
    FirstLine[P] = Line;
    Line += T.events(P).size();
  }
  if (Line + 1 != Starts.size())
    fail("text trace line count does not match its events");

  Interleaved R;
  std::string &Out = R.Text;
  Out.assign(Text, 0, Starts[HeaderLines]);
  Out.reserve(Text.size());
  R.HeaderBytes = Out.size();
  using Item = std::pair<double, unsigned>; // (time, proc)
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> Heap;
  std::vector<size_t> Next(T.numProcs(), 0);
  for (unsigned P = 0; P != T.numProcs(); ++P)
    if (!T.events(P).empty())
      Heap.push({T.events(P).times()[0], P});
  size_t Emitted = 0, Half = T.numEvents() / 2;
  R.HalfOffset = Out.size();
  while (!Heap.empty()) {
    unsigned P = Heap.top().second;
    Heap.pop();
    size_t L = FirstLine[P] + Next[P];
    if (Emitted++ == Half)
      R.HalfOffset = Out.size();
    Out.append(Text, Starts[L], Starts[L + 1] - Starts[L]);
    if (++Next[P] < T.events(P).size())
      Heap.push({T.events(P).times()[Next[P]], P});
  }
  return R;
}

void save(ExitOnError &ExitOnErr, const std::string &Path,
          std::string_view Bytes) {
  ExitOnErr(writeFileAtomic(Path, Bytes, Durability::NoSync));
}

double spanOf(const trace::Trace &T) {
  double Span = 0.0;
  for (unsigned P = 0; P != T.numProcs(); ++P)
    if (!T.events(P).empty())
      Span = std::max(Span, T.events(P).back().Time);
  return Span;
}

} // namespace

int e2e::runGenerate(int Argc, char **Argv) {
  ExitOnError ExitOnErr("lima_e2e generate: ");
  ArgParser Parser("lima_e2e generate",
                   "writes a seeded CFD trace in every form the benchmark "
                   "feeds the product");
  Parser.addOption("seed", "workload seed", "1");
  Parser.addOption("procs", "simulated ranks", "64");
  Parser.addOption("iterations", "CFD time steps", "200");
  Parser.addOption("dir", "output directory (must exist)", ".");
  ExitOnErr(Parser.parse(Argc, Argv));
  const std::string Dir = Parser.getString("dir");

  // The seed draws the imbalance scale and every rank's compute speed;
  // the structure (and so the event count) depends on procs and
  // iterations only.
  RNG Rng(splitSeed(Parser.getUnsigned("seed"), 0xE2E));
  cfd::CfdConfig Config;
  Config.Procs = static_cast<unsigned>(Parser.getUnsigned("procs"));
  Config.Iterations = static_cast<unsigned>(Parser.getUnsigned("iterations"));
  Config.ImbalanceScale = Rng.uniformIn(0.5, 1.5);
  for (unsigned P = 0; P != Config.Procs; ++P)
    Config.ComputeSpeed.push_back(Rng.uniformIn(0.7, 1.3));
  cfd::CfdResult Run = ExitOnErr(cfd::runCfd(Config));
  const trace::Trace &T = Run.Trace;

  std::string Text = trace::writeTraceText(T);
  std::string Limb = trace::writeTraceBinary(T);
  Interleaved Monitor = interleave(T, Text);
  save(ExitOnErr, Dir + "/trace.txt", Text);
  save(ExitOnErr, Dir + "/trace.limb", Limb);
  save(ExitOnErr, Dir + "/monitor.txt", Monitor.Text);

  // The set-up probe's input: the same program at its smallest size.
  cfd::CfdConfig Small = Config;
  Small.Procs = 2;
  Small.Iterations = 1;
  Small.ComputeSpeed.resize(2);
  cfd::CfdResult SmallRun = ExitOnErr(cfd::runCfd(Small));
  std::string MinText = trace::writeTraceText(SmallRun.Trace);
  save(ExitOnErr, Dir + "/min.txt", MinText);
  save(ExitOnErr, Dir + "/min.limb", trace::writeTraceBinary(SmallRun.Trace));

  double SpeedMin = *std::min_element(Config.ComputeSpeed.begin(),
                                      Config.ComputeSpeed.end());
  double SpeedMax = *std::max_element(Config.ComputeSpeed.begin(),
                                      Config.ComputeSpeed.end());
  std::string Manifest =
      "{\"seed\": " + std::to_string(Parser.getUnsigned("seed")) +
      ", \"procs\": " + std::to_string(T.numProcs()) +
      ", \"iterations\": " + std::to_string(Config.Iterations) +
      ", \"imbalance_scale\": " + jsonNumber(Config.ImbalanceScale) +
      ", \"speed_min\": " + jsonNumber(SpeedMin) +
      ", \"speed_max\": " + jsonNumber(SpeedMax) +
      ", \"events\": " + std::to_string(T.numEvents()) +
      ", \"span_seconds\": " + jsonNumber(spanOf(T)) +
      ", \"text_bytes\": " + std::to_string(Text.size()) +
      ", \"limb_bytes\": " + std::to_string(Limb.size()) +
      ", \"min_events\": " + std::to_string(SmallRun.Trace.numEvents()) +
      ", \"monitor_bytes\": " + std::to_string(Monitor.Text.size()) +
      ", \"monitor_header_bytes\": " +
      std::to_string(Monitor.HeaderBytes) +
      ", \"monitor_half_offset\": " + std::to_string(Monitor.HalfOffset) +
      ", \"monitor_half_events\": " + std::to_string(T.numEvents() / 2) +
      "}\n";
  save(ExitOnErr, Dir + "/manifest.json", Manifest);
  return 0;
}

int e2e::runOracle(int Argc, char **Argv) {
  ExitOnError ExitOnErr("lima_e2e oracle: ");
  ArgParser Parser("lima_e2e oracle",
                   "expected /events frames and window-closing chunks for "
                   "a followed interleaved trace");
  Parser.addPositional("trace", "interleaved text trace");
  Parser.addOption("window", "window width in seconds", "1.0");
  Parser.addOption("half-offset", "byte offset where the appended part "
                                  "(the live leg) begins", "0");
  Parser.addOption("chunks", "number of equal-event live appends", "1");
  Parser.addOption("frames", "write the expected frames here", "");
  Parser.addOption("out", "write the JSON summary here", "");
  ExitOnErr(Parser.parse(Argc, Argv));
  std::string Text = ExitOnErr(readFile(Parser.getPositionals()[0]));
  size_t Half = Parser.getUnsigned("half-offset");
  size_t Chunks = std::max<uint64_t>(1, Parser.getUnsigned("chunks"));
  if (Half > Text.size())
    fail("--half-offset lies past the end of the trace");

  core::WindowedOptions Opts;
  Opts.WindowSeconds = Parser.getDouble("window");

  // Batch: the frames every window must carry (windowed = batch).
  std::string Frames;
  size_t NumWindows = 0;
  {
    trace::Trace T = ExitOnErr(trace::parseTraceText(Text));
    core::WindowedAnalyzer Batch(T.regionNames(), T.activityNames(),
                                 T.numProcs(), Opts);
    ExitOnErr(Batch.addTrace(T));
    for (const core::WindowResult &W : Batch.finish()) {
      core::WindowSummary S = core::WindowHistory::summarize(W, 0);
      Frames += core::dash::sseWindowFrame(S, W.Cube.regionNames(),
                                           W.Cube.activityNames());
      ++NumWindows;
    }
  }

  // Streaming, as lima_monitor consumes the file: the backlog at once,
  // then the live appends one chunk at a time.
  trace::StreamParser Stream;
  std::optional<core::WindowedAnalyzer> Analyzer;
  std::vector<trace::Event> Events;
  auto drain = [&] {
    for (const trace::Event &E : Events) {
      if (!Analyzer)
        Analyzer.emplace(Stream.regionNames(), Stream.activityNames(),
                         Stream.numProcs(), Opts);
      ExitOnErr(Analyzer->addEvent(E));
    }
    Events.clear();
    std::vector<uint64_t> Ids;
    if (Analyzer)
      for (const core::WindowResult &W : Analyzer->drainCompleted())
        Ids.push_back(W.Index);
    return Ids;
  };
  auto consume = [&](std::string_view Bytes) {
    ExitOnErr(Stream.feed(Bytes, Events));
    return drain();
  };
  std::string_view All(Text);
  std::vector<uint64_t> CatchUp = consume(All.substr(0, Half));
  uint64_t CatchUpEvents = Stream.eventsParsed();

  // Line-aligned chunk ends with equal event counts (the last may be
  // short).
  size_t Lines = static_cast<size_t>(
      std::count(Text.begin() + static_cast<std::ptrdiff_t>(Half),
                 Text.end(), '\n'));
  size_t PerChunk = std::max<size_t>(1, (Lines + Chunks - 1) / Chunks);
  std::vector<size_t> Ends;
  size_t InChunk = 0;
  for (size_t Pos = Half; Pos < Text.size(); ++Pos)
    if (Text[Pos] == '\n' && ++InChunk == PerChunk) {
      Ends.push_back(Pos + 1);
      InChunk = 0;
    }
  if (Ends.empty() || Ends.back() != Text.size())
    Ends.push_back(Text.size());

  std::string Closed;
  size_t Begin = Half;
  for (size_t C = 0; C != Ends.size(); ++C) {
    for (uint64_t Id : consume(All.substr(Begin, Ends[C] - Begin))) {
      if (!Closed.empty())
        Closed += ", ";
      Closed += "[" + std::to_string(Id) + ", " + std::to_string(C) + "]";
    }
    Begin = Ends[C];
  }
  ExitOnErr(Stream.finish(Events));
  std::vector<uint64_t> Final = drain();
  if (Analyzer)
    for (const core::WindowResult &W : Analyzer->finish())
      Final.push_back(W.Index);

  auto list = [](const auto &V) {
    std::string S;
    for (auto X : V)
      S += (S.empty() ? "" : ", ") + std::to_string(X);
    return "[" + S + "]";
  };
  std::string Json =
      "{\"windows\": " + std::to_string(NumWindows) +
      ", \"catchup_ids\": " + list(CatchUp) +
      ", \"catchup_events\": " + std::to_string(CatchUpEvents) +
      ", \"chunk_ends\": " + list(Ends) + ", \"closed\": [" + Closed +
      "], \"final_ids\": " + list(Final) + "}\n";
  ExitOnErr(writeFileAtomic(Parser.getString("frames"), Frames,
                            Durability::NoSync));
  ExitOnErr(writeFileAtomic(Parser.getString("out"), Json,
                            Durability::NoSync));
  return 0;
}

namespace {

uint64_t spin(uint64_t Iterations, uint64_t X) {
  for (uint64_t I = 0; I != Iterations; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    X ^= X >> 29;
  }
  return X;
}

} // namespace

int e2e::runCalibrate(int Argc, char **Argv) {
  ExitOnError ExitOnErr("lima_e2e calibrate: ");
  ArgParser Parser("lima_e2e calibrate",
                   "measures the parallelism the machine delivers");
  Parser.addOption("threads", "spinning threads", "1");
  ExitOnErr(Parser.parse(Argc, Argv));
  unsigned N = std::max<unsigned>(
      1, static_cast<unsigned>(Parser.getUnsigned("threads")));
  const uint64_t Iter = 40000000; // ~0.1 s per thread

  std::atomic<uint64_t> Sink{0};
  auto onAll = [&](uint64_t Length) {
    auto T0 = Clock::now();
    {
      std::vector<std::jthread> Workers;
      for (unsigned I = 0; I != N; ++I)
        Workers.emplace_back(
            [&Sink, Length, I] { Sink += spin(Length, 3 + I); });
    }
    return msSince(T0);
  };
  // Wake every core first: an idle virtual CPU can take tens of
  // milliseconds to be scheduled again, which is not what a busy
  // workload sees.
  onAll(Iter / 4);
  auto T0 = Clock::now();
  Sink += spin(Iter, 2);
  double SingleMs = msSince(T0);
  double ParallelMs = onAll(Iter);
  std::printf("{\"threads\": %u, \"single_ms\": %s, \"parallel_ms\": %s, "
              "\"parallelism\": %s, \"sink\": %llu}\n",
              N, jsonNumber(SingleMs).c_str(), jsonNumber(ParallelMs).c_str(),
              jsonNumber(N * SingleMs / ParallelMs).c_str(),
              static_cast<unsigned long long>(Sink.load() & 1));
  return 0;
}
