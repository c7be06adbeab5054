//===- trace/StreamParser.cpp - Incremental LIMATRACE parser --------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/StreamParser.h"
#include "support/Metrics.h"

using namespace lima;
using namespace lima::trace;

StreamParser::StreamParser(ParseOptions Options) : Grammar(Options) {}

void StreamParser::VectorSink::dropped() {
  LIMA_METRIC_COUNT("lima.stream.dropped_total", 1);
}

Error StreamParser::endCall(Error Err,
                             [[maybe_unused]] uint64_t EventsBefore) {
  Grammar.flushRecords();
  LIMA_METRIC_COUNT("lima.stream.events_total",
                    Grammar.totalEvents() - EventsBefore);
  return Err;
}

Error StreamParser::feed(std::string_view Bytes, std::vector<Event> &Out) {
  Grammar.sink().Out = &Out;
  const uint64_t EventsBefore = Grammar.totalEvents();
  Buffer.append(Bytes);
  size_t Start = 0;
  for (;;) {
    size_t Newline = Buffer.find('\n', Start);
    if (Newline == std::string::npos)
      break;
    Error Err = Grammar.line(
        std::string_view(Buffer.data() + Start, Newline - Start),
        StreamOffset);
    StreamOffset += Newline - Start + 1;
    Start = Newline + 1;
    if (Err) {
      Buffer.erase(0, Start);
      return endCall(std::move(Err), EventsBefore);
    }
  }
  Buffer.erase(0, Start);
  // A partial line longer than the limit can never become valid; fail
  // now instead of buffering unboundedly.
  if (Buffer.size() > Grammar.options().Limits.MaxLineBytes) {
    size_t LineNo = Grammar.lineNumber() + 1;
    return endCall(
        makeParseError(ErrorCode::LimitExceeded, LineNo, StreamOffset,
                       "trace line %zu: line exceeds the length limit",
                       LineNo),
        EventsBefore);
  }
  return endCall(Error::success(), EventsBefore);
}

Error StreamParser::finish(std::vector<Event> &Out) {
  Grammar.sink().Out = &Out;
  const uint64_t EventsBefore = Grammar.totalEvents();
  if (!Buffer.empty()) {
    std::string Last;
    Last.swap(Buffer);
    if (auto Err = Grammar.line(Last, StreamOffset))
      return endCall(std::move(Err), EventsBefore);
    StreamOffset += Last.size();
  }
  return endCall(Grammar.finish(), EventsBefore);
}

size_t StreamParser::discardPartialLine() {
  size_t Bytes = Buffer.size();
  Buffer.clear();
  return Bytes;
}
