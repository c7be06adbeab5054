//===- trace/TextParserDetail.h - LIMATRACE line grammar --------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one LIMATRACE line grammar (LineGrammar, driven by the batch
/// parser below and by StreamParser) and the sequential parser built on
/// it.  TextTraceParser is a class so parseTraceTextParallel can drive
/// it in two phases: parse the header prologue sequentially, shard the
/// event section across threads, and fall back to finishing
/// sequentially whenever the input does something sharding cannot
/// reproduce bit-identically (declarations after the first event,
/// limits that could trip mid-section).  Internal to lima_trace.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_TEXTPARSERDETAIL_H
#define LIMA_TRACE_TEXTPARSERDETAIL_H

#include "support/ParseLimits.h"
#include "trace/TextScan.h"
#include "trace/Trace.h"
#include <optional>
#include <string_view>

namespace lima {
namespace trace {
namespace detail {

/// The LIMATRACE grammar, fed one line (without its '\n') at a time.
/// Where a line starts and where the stream ends are the caller's; the
/// grammar owns everything else: line numbers, the header state (the
/// processor count and both name tables), the limits and allocation
/// charges, the lenient drop rule and the end-of-input checks.
///
/// \p Sink receives what the grammar accepts:
///
///   static constexpr uint64_t EventBytes;  // storage charged per event
///                                          // against MaxAllocBytes
///   void procs(unsigned NumProcs);         // the 'procs' line
///   void event(const Event &E);            // one accepted event
///   void dropped();                        // one lenient drop
template <typename Sink> class LineGrammar {
public:
  explicit LineGrammar(const ParseOptions &Options) : Options(Options) {}

  /// Parses the next line, \p RawLine, which starts at byte
  /// \p LineOffset of the input.
  Error line(std::string_view RawLine, size_t LineOffset) {
    // Every line takes this prefix; event lines leave through it.
    ++LineNo;
    if (RawLine.size() > Options.Limits.MaxLineBytes)
      return failAt(ErrorCode::LimitExceeded, LineOffset,
                    "line exceeds the length limit");
    std::string_view Line = scan::skipLeadingSpace(RawLine);
    if (Line.empty() || Line.front() == '#')
      return Error::success();
    if (SawMagic && !scan::isDirectiveLine(Line))
      return event(Line, LineOffset);
    return directive(Line, LineOffset);
  }

  /// The end-of-input checks: the magic and 'procs' lines both arrived.
  Error finish() const {
    if (!SawMagic)
      return makeCodedError(ErrorCode::BadMagic,
                            "trace: missing 'LIMATRACE 1' header");
    if (!SawProcs)
      return makeCodedError(ErrorCode::MissingSection,
                            "trace: missing 'procs' line");
    return Error::success();
  }

  /// Publishes the event records counted since the last flush into
  /// Options.Report (a store through the report pointer per record was
  /// a lenient-mode regression).  Callers flush at every exit.
  void flushRecords() {
    if (Options.Report) {
      Options.Report->TotalRecords += Records;
      Records = 0;
    }
  }

  /// Folds an event section parsed elsewhere (the sharded path) into
  /// the counts, as if its \p Lines lines had gone through line().
  void noteSection(uint64_t Lines, uint64_t Events) {
    LineNo += Lines;
    TotalEvents += Events;
    AllocBytes += Events * Sink::EventBytes;
  }

  /// Table sizes event records validate against.
  scan::EventTables tables() const {
    scan::EventTables T;
    T.SawProcs = SawProcs;
    T.NumProcs = NumProcs;
    T.NumRegions = Regions.size();
    T.NumActivities = Activities.size();
    return T;
  }

  bool sawMagic() const { return SawMagic; }
  bool sawProcs() const { return SawProcs; }
  unsigned numProcs() const { return NumProcs; }
  NameTable &regions() { return Regions; }
  NameTable &activities() { return Activities; }
  const NameTable &regions() const { return Regions; }
  const NameTable &activities() const { return Activities; }
  /// 1-based number of the last line parsed.
  size_t lineNumber() const { return LineNo; }
  uint64_t totalEvents() const { return TotalEvents; }
  uint64_t allocBytes() const { return AllocBytes; }
  const ParseOptions &options() const { return Options; }
  Sink &sink() { return Out; }

private:
  Error failAt(ErrorCode Code, size_t LineOffset, const char *What) const {
    return makeParseError(Code, LineNo, LineOffset, "trace line %zu: %s",
                          LineNo, What);
  }

  /// The event record \p Line (left-trimmed).  In lenient mode a
  /// malformed record is dropped instead of aborting the parse.
  Error event(std::string_view Line, size_t LineOffset) {
    ++Records;
    Event E;
    Error RecordErr =
        scan::parseEventRecord(Line, tables(), LineNo, LineOffset, E);
    if (RecordErr) {
      // 'procs' missing is a header problem, not a record problem:
      // nothing later can succeed, so it stays fatal in lenient mode.
      ParseError PE = RecordErr.toParseError();
      if (PE.Code != ErrorCode::MissingSection && Options.dropRecord(PE)) {
        Out.dropped();
        return Error::success();
      }
      return Error::fromParse(std::move(PE));
    }
    if (++TotalEvents > Options.Limits.MaxEvents)
      return failAt(ErrorCode::LimitExceeded, LineOffset,
                    "event count exceeds the limit");
    if constexpr (Sink::EventBytes != 0) {
      AllocBytes += Sink::EventBytes;
      if (AllocBytes > Options.Limits.MaxAllocBytes)
        return failAt(ErrorCode::LimitExceeded, LineOffset,
                      "event storage exceeds the allocation cap");
    }
    Out.event(E);
    return Error::success();
  }

  /// The magic line, 'procs' and the declarations; kept out of line so
  /// the per-event prefix in line() stays small.
  __attribute__((noinline)) Error directive(std::string_view Line,
                                            size_t LineOffset);

  ParseOptions Options;
  Sink Out;
  size_t LineNo = 0;
  bool SawMagic = false;
  bool SawProcs = false;
  unsigned NumProcs = 0;
  NameTable Regions;
  NameTable Activities;
  uint64_t TotalEvents = 0;
  uint64_t AllocBytes = 0;
  uint64_t Records = 0;
};

template <typename Sink>
Error LineGrammar<Sink>::directive(std::string_view Line, size_t LineOffset) {
  const ParseLimits &Limits = Options.Limits;
  auto fail = [&](ErrorCode Code, const char *What) {
    return failAt(Code, LineOffset, What);
  };
  auto failNumber = [&](Error E) {
    return makeParseError(ErrorCode::BadNumber, LineNo, LineOffset,
                          "trace line %zu: %s", LineNo, E.message().c_str());
  };
  std::string_view Fields[scan::MaxFields];
  size_t NumFields = scan::splitFields(Line, Fields);

  if (!SawMagic) {
    if (NumFields == 2 && Fields[0] == "LIMATRACE" && Fields[1] != "1")
      return fail(ErrorCode::UnsupportedVersion,
                  "unsupported LIMATRACE version");
    if (NumFields != 2 || Fields[0] != "LIMATRACE" || Fields[1] != "1")
      return fail(ErrorCode::BadMagic, "expected header 'LIMATRACE 1'");
    SawMagic = true;
    return Error::success();
  }

  if (Fields[0] == "procs") {
    if (SawProcs)
      return fail(ErrorCode::DuplicateDeclaration, "duplicate 'procs' line");
    if (NumFields != 2)
      return fail(ErrorCode::MalformedRecord, "'procs' takes one argument");
    auto CountOrErr = scan::scanUnsigned(Fields[1]);
    if (!CountOrErr)
      return failNumber(CountOrErr.takeError());
    if (*CountOrErr == 0 || *CountOrErr > (1u << 20))
      return fail(ErrorCode::ValueOutOfRange, "processor count out of range");
    if (*CountOrErr > Limits.MaxProcs)
      return fail(ErrorCode::LimitExceeded,
                  "processor count exceeds the limit");
    AllocBytes += *CountOrErr * sizeof(std::vector<Event>);
    if (AllocBytes > Limits.MaxAllocBytes)
      return fail(ErrorCode::LimitExceeded,
                  "processor table exceeds the allocation cap");
    SawProcs = true;
    NumProcs = static_cast<unsigned>(*CountOrErr);
    Out.procs(NumProcs);
    return Error::success();
  }

  // The remaining directives, "region" and "activity", declare names.
  if (!SawProcs)
    return fail(ErrorCode::MissingSection,
                "'procs' must precede declarations");
  if (NumFields < 3)
    return fail(ErrorCode::MalformedRecord,
                "declaration needs an id and a name");
  auto IdOrErr = scan::scanUnsigned(Fields[1]);
  if (!IdOrErr)
    return failNumber(IdOrErr.takeError());
  bool IsRegion = Fields[0] == "region";
  NameTable &Table = IsRegion ? Regions : Activities;
  if (*IdOrErr != Table.size())
    return fail(ErrorCode::MalformedRecord,
                "declaration ids must be dense and in order");
  if (Table.size() >= (IsRegion ? Limits.MaxRegions : Limits.MaxActivities))
    return fail(ErrorCode::LimitExceeded,
                "declaration count exceeds the limit");
  if (Fields[2].size() > Limits.MaxNameBytes)
    return fail(ErrorCode::LimitExceeded,
                "declaration name exceeds the length limit");
  AllocBytes += scan::nameAllocCost(Fields[2].size());
  if (AllocBytes > Limits.MaxAllocBytes)
    return fail(ErrorCode::LimitExceeded,
                "name tables exceed the allocation cap");
  if (!Table.insert(std::string(Fields[2])))
    return fail(ErrorCode::DuplicateDeclaration,
                IsRegion ? "duplicate region name"
                         : "duplicate activity name");
  return Error::success();
}

/// The batch sink: every event is charged and appended to the trace the
/// 'procs' line created.
struct TraceSink {
  static constexpr uint64_t EventBytes = sizeof(Event);
  std::optional<Trace> Result;

  void procs(unsigned NumProcs) { Result.emplace(NumProcs); }
  void event(const Event &E) { Result->appendUnchecked(E); }
  void dropped() {}
};

/// One sequential pass over LIMATRACE text.  Lines are consumed front
/// to back; position()/nextLineNumber() always point at the first
/// unconsumed line.
class TextTraceParser {
public:
  TextTraceParser(std::string_view Text, const ParseOptions &Options)
      : Text(Text), Grammar(Options) {}

  /// Consumes every remaining line.
  Error parseAll();

  /// Consumes header lines (magic, procs, declarations, blanks,
  /// comments) and stops — without consuming — at the first event line.
  Error parsePrologue();

  /// Final magic/procs checks plus ingestion metrics; hands the name
  /// tables to the trace and moves it out.  Call exactly once, after
  /// parsing succeeded.
  Expected<Trace> take();

  /// True once every line (including a trailing unterminated one) has
  /// been consumed.
  bool atEnd() const { return Done; }

  /// Byte offset of the first unconsumed line.
  size_t position() const { return Pos; }

  /// 1-based number the next consumed line will get.
  size_t nextLineNumber() const { return Grammar.lineNumber() + 1; }

  /// Header state and counts (valid once the prologue ran).
  const LineGrammar<TraceSink> &grammar() const { return Grammar; }

  /// Folds the results of an externally parsed event section (the
  /// sharded path) into the final accounting, so take() reports the
  /// same totals the sequential pass would have.
  void noteShardedSection(uint64_t Lines, uint64_t Events) {
    Grammar.noteSection(Lines, Events);
    Done = true;
  }

  /// The trace under construction, for the sharded merge to fill its
  /// streams in place.  Valid once the prologue saw 'procs'.
  Trace &trace() { return *Grammar.sink().Result; }

private:
  /// Parses the line at Pos and advances past it.  Precondition:
  /// !atEnd().
  Error consumeLine();

  /// True when the line at Pos is an event record (not consumed).
  bool nextLineIsEvent() const;

  std::string_view Text;
  size_t Pos = 0;
  bool Done = false;
  LineGrammar<TraceSink> Grammar;
};

/// parseTraceTextParallel's engine with the shard count fixed: the
/// event section is split into exactly \p Shards newline-aligned shards
/// (1 = the sequential parser), however small the input.  The public
/// function calls it only above its size threshold; tests call it
/// directly so small inputs reach the sharded code.
Expected<Trace> parseTraceTextSharded(std::string_view Text,
                                      const ParseOptions &Options,
                                      unsigned Shards);

} // namespace detail
} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_TEXTPARSERDETAIL_H
