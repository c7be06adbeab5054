//===- e2ebench/tool/TracedMonitor.cpp - lima_monitor, timed per layer ----===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Replays src/apps/lima_monitor/lima_monitor.cpp's follow loop for the
// options the benchmark passes (--follow --http 127.0.0.1:0 --window W,
// everything else at lima_monitor's defaults, mirrored below; no
// checkpoint, rotation or lenient mode) and times each call into its
// layer:
//
//   trace.stream_feed_ms      StreamParser::feed
//   core.window_add_ms        WindowedAnalyzer::addEvent
//   monitor.event_count_ms    the per-event lima.monitor.events_total bump
//   core.window_drain_ms      WindowedAnalyzer::drainCompleted
//   core.history_ms           WindowHistory::summarize + setNames + append
//   core.dashboard_frame_ms   dash::sseWindowFrame
//   support.hub_publish_ms    StreamHub::publish
//   monitor.report_ms         the window log record and gauges
//
// The product interleaves addEvent and the counter bump per event; the
// replica runs them as two loops over each read's events so that each
// has its own timer without a clock read per event.
//
// Per window it records when the read cycle that drained it woke up and
// when its frame was published (steady_clock ns); run.py joins those
// with its own append due times and frame arrivals.
//
//===----------------------------------------------------------------------===//

#include "Tool.h"
#include "core/Dashboard.h"
#include "core/WindowHistory.h"
#include "core/WindowedAnalysis.h"
#include "support/CommandLine.h"
#include "support/FileUtils.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/MetricsExport.h"
#include "support/StatusServer.h"
#include "support/Telemetry.h"
#include "support/raw_ostream.h"
#include "trace/StreamParser.h"
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <optional>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

using namespace lima;
using namespace e2e;

namespace {

// lima_monitor's defaults for the options the benchmark leaves alone.
constexpr uint64_t IntervalMs = 200;
constexpr size_t HistoryCapacity = 512;
constexpr size_t FlightRecorderSpans = 4096;

volatile std::sig_atomic_t StopRequested = 0;
void onStopSignal(int) { StopRequested = 1; }

struct WindowRecord {
  uint64_t Index;
  int64_t WakeNs;
  int64_t PublishNs;
};

} // namespace

int e2e::runTracedMonitor(int Argc, char **Argv) {
  ExitOnError ExitOnErr("lima_e2e traced-monitor: ");
  ArgParser Parser("lima_e2e traced-monitor",
                   "lima_monitor's follow loop with per-layer wall times");
  Parser.addPositional("trace", "path to the followed trace file");
  Parser.addOption("window", "window width in seconds", "1.0");
  Parser.addOption("timings", "write the layer timings JSON here", "");
  ExitOnErr(Parser.parse(Argc, Argv));

  logging::setSink(&outs());
  logging::setRepeatWindowMs(0);
  // lima_monitor's default --log-level and log format.
  logging::setLevel(logging::Level::Info);
  logging::setJson(false);
  metrics::setEnabled(true);

  auto History = std::make_shared<core::WindowHistory>(HistoryCapacity);
  auto Hub = std::make_shared<http::StreamHub>();
  telemetry::enableFlightRecorder(FlightRecorderSpans);
  telemetry::setRingOnly(true);
  telemetry::setEnabled(true);

  const std::string &Path = Parser.getPositionals()[0];
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    ExitOnErr(makeStringError("cannot open '%s': %s", Path.c_str(),
                              std::strerror(errno)));
  struct sigaction StopAction;
  std::memset(&StopAction, 0, sizeof(StopAction));
  StopAction.sa_handler = onStopSignal;
  sigemptyset(&StopAction.sa_mask);
  ::sigaction(SIGTERM, &StopAction, nullptr);
  ::sigaction(SIGINT, &StopAction, nullptr);

  trace::StreamParser Stream;
  std::optional<core::WindowedAnalyzer> Analyzer;
  core::WindowedOptions WOpts;
  WOpts.WindowSeconds = Parser.getDouble("window");
  std::atomic<uint64_t> WindowsEmitted{0};
  std::vector<trace::Event> Events;

  Layers L;
  std::vector<double> DrainMs;
  std::vector<WindowRecord> Windows;
  int64_t WakeNs = 0;

  // reportWindow() for the strict, non-alerting monitor.
  auto report = [&](const core::WindowResult &W) {
    L.time("monitor.report_ms", [&] {
      metrics::counter("lima.monitor.windows_total").add(1);
    });
    core::WindowSummary S = L.time("core.history_ms", [&] {
      core::WindowSummary S = core::WindowHistory::summarize(W, 0);
      History->setNames(W.Cube.regionNames(), W.Cube.activityNames());
      History->append(S);
      return S;
    });
    std::string Frame = L.time("core.dashboard_frame_ms", [&] {
      return core::dash::sseWindowFrame(S, W.Cube.regionNames(),
                                        W.Cube.activityNames());
    });
    int64_t PublishNs = monoNs();
    L.time("support.hub_publish_ms", [&] { Hub->publish(Frame); });
    Windows.push_back({W.Index, WakeNs, PublishNs});
    if (W.Empty)
      return;
    L.time("monitor.report_ms", [&] {
      size_t TopRegion = W.Regions.MostImbalancedScaled;
      size_t TopActivity = W.Activities.MostImbalancedScaled;
      logging::info(
          "window",
          {logging::field("window", W.Index),
           logging::field("start", W.StartTime),
           logging::field("end", W.EndTime),
           logging::field("events", W.Events),
           logging::field("top_region", W.Cube.regionName(TopRegion)),
           logging::field("sid_c", W.Regions.ScaledIndex[TopRegion]),
           logging::field("top_activity", W.Cube.activityName(TopActivity)),
           logging::field("sid_a", W.Activities.ScaledIndex[TopActivity]),
           logging::field("most_imbalanced_proc",
                          W.Processors.MostFrequentlyImbalanced)});
      for (size_t I = 0; I != W.Regions.ScaledIndex.size(); ++I)
        metrics::gauge("lima.window.sid_c{region=\"" +
                       metrics::escapeLabelValue(W.Cube.regionName(I)) +
                       "\"}")
            .set(W.Regions.ScaledIndex[I]);
      for (size_t J = 0; J != W.Activities.ScaledIndex.size(); ++J)
        metrics::gauge("lima.window.sid_a{activity=\"" +
                       metrics::escapeLabelValue(W.Cube.activityName(J)) +
                       "\"}")
            .set(W.Activities.ScaledIndex[J]);
    });
  };

  auto consumeEvents = [&] {
    if (!Events.empty() && !Analyzer) {
      if (Stream.regionNames().empty() || Stream.activityNames().empty())
        ExitOnErr(makeStringError("trace declares no regions or "
                                  "activities; nothing to monitor"));
      Analyzer.emplace(Stream.regionNames(), Stream.activityNames(),
                       Stream.numProcs(), WOpts);
    }
    L.time("core.window_add_ms", [&] {
      for (const trace::Event &E : Events)
        ExitOnErr(Analyzer->addEvent(E));
    });
    L.time("monitor.event_count_ms", [&] {
      for (size_t I = 0; I != Events.size(); ++I)
        metrics::counter("lima.monitor.events_total").add(1);
    });
    Events.clear();
    if (!Analyzer)
      return;
    LIMA_SPAN("monitor.drain");
    auto T0 = Clock::now();
    std::vector<core::WindowResult> Done = Analyzer->drainCompleted();
    double Ms = msSince(T0);
    L["core.window_drain_ms"] += Ms;
    if (!Done.empty())
      DrainMs.push_back(Ms);
    for (core::WindowResult &W : Done) {
      report(W);
      ++WindowsEmitted;
    }
    L.time("monitor.report_ms", [&] {
      if (!Done.empty())
        metrics::histogram("lima.monitor.drain_seconds",
                           metrics::Histogram::exponentialBounds(1e-6, 10.0,
                                                                 8))
            .observe(std::chrono::duration<double>(Clock::now() - T0)
                         .count());
      metrics::gauge("lima.monitor.watermark_seconds")
          .set(Analyzer->watermark());
    });
  };

  status::StatusServer Status;
  Status.addHealthProbe("stream", [] {
    return status::ProbeResult{true, "ingesting"};
  });
  Status.addReadyProbe("windows", [&WindowsEmitted] {
    return status::ProbeResult{true, "emitted " +
                                         std::to_string(WindowsEmitted.load(
                                             std::memory_order_relaxed)) +
                                         " windows"};
  });
  Status.addVar("windows_emitted", [&WindowsEmitted] {
    return std::to_string(WindowsEmitted.load(std::memory_order_relaxed));
  });
  Status.addVar("sse_frames_published",
                [Hub] { return std::to_string(Hub->framesPublished()); });
  core::dash::mountDashboard(Status, History, Hub);
  ExitOnErr(Status.start("127.0.0.1:0"));
  logging::info("status server listening",
                {logging::field("address", Status.address())});
  outs().flush();

  char Buf[1 << 16];
  bool Idle = true;
  for (;;) {
    if (StopRequested)
      break;
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ExitOnErr(makeStringError("read failed: %s", std::strerror(errno)));
    }
    if (N == 0) {
      struct stat PathSt;
      (void)::stat(Path.c_str(), &PathSt);
      Idle = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
      continue;
    }
    if (Idle) {
      WakeNs = monoNs();
      Idle = false;
    }
    L.time("trace.stream_feed_ms", [&] {
      LIMA_SPAN("monitor.feed");
      ExitOnErr(Stream.feed(std::string_view(Buf, static_cast<size_t>(N)),
                            Events));
    });
    consumeEvents();
    L.time("monitor.report_ms", [&] { outs().flush(); });
  }

  WakeNs = monoNs();
  L.time("trace.stream_feed_ms", [&] { ExitOnErr(Stream.finish(Events)); });
  consumeEvents();
  if (Analyzer)
    for (const core::WindowResult &W : Analyzer->finish()) {
      report(W);
      ++WindowsEmitted;
    }
  ::close(Fd);
  outs().flush();
  Status.stop();

  std::string Drains, Wins;
  for (double Ms : DrainMs)
    Drains += (Drains.empty() ? "" : ", ") + jsonNumber(Ms);
  for (const WindowRecord &W : Windows)
    Wins += std::string(Wins.empty() ? "" : ", ") + "[" +
            std::to_string(W.Index) + ", " + std::to_string(W.WakeNs) + ", " +
            std::to_string(W.PublishNs) + "]";
  std::string Json =
      "{\"layers\": " + L.json() +
      ", \"events\": " + std::to_string(Stream.eventsParsed()) +
      ", \"frames_published\": " + std::to_string(Hub->framesPublished()) +
      ", \"frames_dropped\": " + std::to_string(Hub->framesDropped()) +
      ", \"drain_ms\": [" + Drains + "], \"windows\": [" + Wins + "]}\n";
  if (!Parser.getString("timings").empty())
    ExitOnErr(writeFile(Parser.getString("timings"), Json));
  return 0;
}
