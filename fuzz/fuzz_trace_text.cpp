//===- fuzz/fuzz_trace_text.cpp - LIMATRACE text parser fuzz target -------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Differential target for text ingest.  Every input is parsed strict and
// lenient by the batch parser, and each mode must agree bit for bit with
//
//  - the sharded parser forced to 2 and 4 shards (below its size
//    threshold the public entry point never shards, so only this seam
//    lets small inputs reach the shard, directive-scan and merge code);
//  - StreamParser fed the same bytes in input-chosen chunk sizes;
//
// on the events (per processor, time bits included), the name tables,
// the error (code, line, offset, message) and the full ParseReport.
// Every substantive line is also run through the single-pass event
// cursor and the split-field grammar: whenever the cursor accepts a
// line, the split grammar must accept it with the same Event, and
// whenever the split grammar accepts a line, scan::eventProcField
// (which the sharded parser counts lines by) reads its processor.  Any
// disagreement aborts, which libFuzzer reports as a crash and the
// corpus replay as a failed test.
//
//===----------------------------------------------------------------------===//

#include "FuzzOptions.h"
#include "ReduceCheck.h"
#include "trace/StreamParser.h"
#include "trace/TextParserDetail.h"
#include "trace/TraceIO.h"
#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

using namespace lima;
using trace::Event;

namespace {

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  int Len = std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  if (Len > 0)
    Out.append(Buf, std::min(static_cast<size_t>(Len), sizeof(Buf) - 1));
}

uint64_t timeBits(double Time) {
  uint64_t Bits;
  std::memcpy(&Bits, &Time, sizeof(Bits));
  return Bits;
}

void describeEvent(std::string &Out, const Event &E) {
  appendf(Out, "%u %d %u %" PRIu64 " %016" PRIx64 "\n", E.Proc,
          static_cast<int>(E.Kind), E.Id, E.Bytes, timeBits(E.Time));
}

/// A parsed trace as comparable bytes: name tables, then each
/// processor's events in order.
std::string describeTrace(unsigned NumProcs,
                          const std::vector<std::string> &Regions,
                          const std::vector<std::string> &Activities,
                          const std::vector<std::vector<Event>> &ByProc) {
  std::string Out;
  appendf(Out, "procs %u\n", NumProcs);
  for (const std::string &Name : Regions)
    Out += "region " + Name + "\n";
  for (const std::string &Name : Activities)
    Out += "activity " + Name + "\n";
  for (const std::vector<Event> &Events : ByProc)
    for (const Event &E : Events)
      describeEvent(Out, E);
  return Out;
}

std::string describeError(Error Err) {
  ParseError PE = Err.toParseError();
  std::string Out;
  appendf(Out, "error %d line %zu offset %zu: ", static_cast<int>(PE.Code),
          PE.Line, PE.Offset);
  return Out + PE.Msg + "\n";
}

std::string describeReport(const ParseReport &R) {
  std::string Out;
  appendf(Out, "records %" PRIu64 " dropped %" PRIu64 "\n", R.TotalRecords,
          R.DroppedRecords);
  for (size_t I = 0; I != R.DroppedByCode.size(); ++I)
    if (R.DroppedByCode[I] != 0)
      appendf(Out, "code %zu: %" PRIu64 "\n", I, R.DroppedByCode[I]);
  for (const ParseError &PE : R.Samples) {
    appendf(Out, "sample %d line %zu offset %zu: ", static_cast<int>(PE.Code),
            PE.Line, PE.Offset);
    Out += PE.Msg + "\n";
  }
  return Out;
}

void expectSame(const std::string &Ref, const std::string &Got,
                const char *What) {
  if (Ref == Got)
    return;
  std::fprintf(stderr, "fuzz_trace_text: %s diverges from the batch parse\n"
                       "--- batch\n%s--- %s\n%s",
               What, Ref.c_str(), What, Got.c_str());
  std::abort();
}

ParseOptions optionsFor(ParseMode Mode, ParseReport &Report) {
  return Mode == ParseMode::Strict ? fuzz::strictOptions()
                                   : fuzz::lenientOptions(Report);
}

/// Batch (\p Shards == 0) or forced-sharded parse, described.
std::string parseBatch(std::string_view Text, ParseMode Mode,
                       unsigned Shards) {
  ParseReport Report;
  ParseOptions Options = optionsFor(Mode, Report);
  Expected<trace::Trace> T =
      Shards == 0 ? trace::parseTraceText(Text, Options)
                  : trace::detail::parseTraceTextSharded(Text, Options, Shards);
  std::string Out;
  if (T) {
    if (Shards == 0)
      fuzz::checkReductionAcrossThreads(*T);
    std::vector<std::vector<Event>> ByProc(T->numProcs());
    for (unsigned P = 0; P != T->numProcs(); ++P)
      for (const Event &E : T->events(P))
        ByProc[P].push_back(E);
    Out = describeTrace(T->numProcs(), T->regionNames(), T->activityNames(),
                        ByProc);
  } else {
    Out = describeError(T.takeError());
  }
  return Out + describeReport(Report);
}

/// StreamParser over \p Text in chunks whose sizes the input picks.
std::string parseStream(std::string_view Text, ParseMode Mode) {
  ParseReport Report;
  trace::StreamParser Stream(optionsFor(Mode, Report));
  std::vector<Event> Events;
  Error Err = Error::success();
  size_t Pos = 0;
  for (size_t Chunk = 0; Pos < Text.size() && !Err; ++Chunk) {
    unsigned char Pick =
        static_cast<unsigned char>(Text[(Chunk * 31) % Text.size()]);
    size_t Len = std::min<size_t>(1 + Pick % 61, Text.size() - Pos);
    Err = Stream.feed(Text.substr(Pos, Len), Events);
    Pos += Len;
  }
  if (!Err)
    Err = Stream.finish(Events);
  std::string Out;
  if (Err) {
    Out = describeError(std::move(Err));
  } else {
    std::vector<std::vector<Event>> ByProc(Stream.numProcs());
    for (const Event &E : Events)
      ByProc[E.Proc].push_back(E);
    Out = describeTrace(Stream.numProcs(), Stream.regionNames(),
                        Stream.activityNames(), ByProc);
  }
  return Out + describeReport(Report);
}

/// Whenever the cursor accepts \p Line, the split-field grammar must
/// accept it with the same Event; whenever the split grammar accepts
/// it, eventProcField must read the same processor.
void checkCursor(std::string_view Line, const trace::scan::EventTables &T) {
  Event Cursor;
  bool Accepted = trace::scan::scanEventCursor(Line, T, Cursor);
  std::string_view Fields[trace::scan::MaxFields];
  size_t NumFields = trace::scan::splitFields(Line, Fields);
  Event Split;
  Error Err =
      trace::scan::parseEventFields(Fields, NumFields, T, 1, 0, Split);
  if (!Err) {
    // The sharded parser places events by this field's per-line count.
    std::optional<uint64_t> Proc = trace::scan::eventProcField(Line);
    expectSame(std::to_string(Split.Proc),
               Proc ? std::to_string(*Proc) : std::string("none"),
               "processor field");
  }
  if (!Accepted) {
    Err.consume();
    return;
  }
  std::string Ref = Err ? describeError(std::move(Err)) : std::string();
  describeEvent(Ref, Split);
  std::string Got;
  describeEvent(Got, Cursor);
  expectSame(Ref, Got, "event cursor");
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::string_view Text(reinterpret_cast<const char *>(Data), Size);

  for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
    std::string Batch = parseBatch(Text, Mode, 0);
    expectSame(Batch, parseBatch(Text, Mode, 2), "2 shards");
    expectSame(Batch, parseBatch(Text, Mode, 4), "4 shards");
    expectSame(Batch, parseStream(Text, Mode), "stream");
  }

  const trace::scan::EventTables Tables[] = {{true, 4, 4, 4}, {true, 1, 0, 2}};
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    std::string_view Line =
        trace::scan::skipLeadingSpace(Text.substr(Pos, End - Pos));
    if (!Line.empty())
      for (const trace::scan::EventTables &T : Tables)
        checkCursor(Line, T);
    Pos = End + 1;
  }
  return 0;
}
