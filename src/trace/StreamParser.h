//===- trace/StreamParser.h - Incremental LIMATRACE parser ------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An incremental parser for the LIMATRACE text format: feed it byte
/// chunks as they arrive (a tailed file, a pipe) and it emits events as
/// soon as their line is complete, without materializing a Trace.  The
/// grammar, limit checks, error taxonomy and lenient-mode drop rules
/// are parseTraceText's: both drive the one detail::LineGrammar
/// (TextParserDetail.h), and this class adds only the byte buffer,
/// partial-line handling and stream offsets.  Two differences are
/// intentional:
///
///  - the stream has no end until finish(), so "missing header"
///    diagnostics are deferred to finish() and a trailing unterminated
///    line is parsed there;
///  - the stream keeps no events, so it charges no event storage
///    against ParseLimits::MaxAllocBytes (the processor table and the
///    name tables are charged as in batch).  A cap that batch exceeds
///    on an event line therefore does not stop the stream.
///
/// Intended consumer: lima_monitor, which forwards emitted events into
/// a core::WindowedAnalyzer.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_STREAMPARSER_H
#define LIMA_TRACE_STREAMPARSER_H

#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Event.h"
#include "trace/TextParserDetail.h"
#include <string>
#include <string_view>
#include <vector>

namespace lima {
namespace trace {

/// Push-style LIMATRACE text parser.
class StreamParser {
public:
  explicit StreamParser(ParseOptions Options = {});

  /// Consumes \p Bytes; events from every newline-terminated line seen
  /// so far are appended to \p Out.  Header and declaration lines
  /// update the parser's tables instead of emitting events.  Errors
  /// follow parseTraceText: header problems and exceeded limits are
  /// fatal; malformed event records are fatal in strict mode and
  /// dropped + counted in lenient mode.
  Error feed(std::string_view Bytes, std::vector<Event> &Out);

  /// Ends the stream: parses a trailing unterminated line, then checks
  /// that the magic and 'procs' lines ever arrived.
  Error finish(std::vector<Event> &Out);

  /// Drops the buffered bytes of a trailing line that has no newline
  /// yet and returns how many there were.  For a follower that stops
  /// while the writer may be mid-line: finish() would otherwise parse
  /// the half-written line as a record.
  size_t discardPartialLine();

  /// True once the 'procs' line has been parsed (declarations and
  /// events can only follow it, so seeing any event implies this).
  bool headerComplete() const { return Grammar.sawProcs(); }
  unsigned numProcs() const { return Grammar.numProcs(); }
  const std::vector<std::string> &regionNames() const {
    return Grammar.regions().names();
  }
  const std::vector<std::string> &activityNames() const {
    return Grammar.activities().names();
  }

  /// 1-based number of the last complete line consumed.
  size_t lineNumber() const { return Grammar.lineNumber(); }
  uint64_t eventsParsed() const { return Grammar.totalEvents(); }

private:
  /// Pushes accepted events into the vector of the current call.
  struct VectorSink {
    static constexpr uint64_t EventBytes = 0;
    std::vector<Event> *Out = nullptr;

    void procs(unsigned) {}
    void event(const Event &E) { Out->push_back(E); }
    void dropped();
  };

  /// Ends a feed()/finish() call: publishes its records and the events
  /// it emitted since \p EventsBefore, then returns \p Err.
  Error endCall(Error Err, uint64_t EventsBefore);

  detail::LineGrammar<VectorSink> Grammar;
  std::string Buffer;      ///< Bytes of the current incomplete line.
  size_t StreamOffset = 0; ///< Byte offset of Buffer's start in the stream.
};

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_STREAMPARSER_H
