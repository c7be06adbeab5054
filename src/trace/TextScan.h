//===- trace/TextScan.h - LIMATRACE text scanning primitives ----*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocation-free scanning core shared by every LIMATRACE text
/// consumer — the batch parser (parseTraceText), the sharded parallel
/// parser (parseTraceTextParallel) and the incremental StreamParser.
/// Four layers:
///
///  - isDirectiveLine: the one classifier that decides whether a line
///    after the magic line is a header directive or an event record;
///  - splitFields: an in-place tokenizer into a fixed field array on
///    the caller's stack, for header lines and rejected event lines;
///  - scanUnsigned / scanDouble: std::from_chars fast paths that fall
///    back to the historical strtoX-based StringUtils parsers whenever
///    from_chars does not cleanly consume the token, so the accepted
///    grammar, the produced values and the BadNumber error messages are
///    bit-identical to the pre-fast-path parsers (leading '+', hex
///    floats, out-of-range and subnormal handling all route through the
///    old code);
///  - parseEventRecord: the one event-record grammar, shared so the
///    three consumers cannot drift apart in error codes, messages or
///    range checks.  It first runs a single cursor over the line
///    (scanEventCursor), which accepts exactly the lines whose every
///    token from_chars consumes whole and that pass every range check;
///    any other line is split and run through the ordered checks
///    (parseEventFields), which produce the error.  eventProcField
///    reads just the processor field the way the grammar does, for
///    the sharded parser's per-processor line counts.
///
/// Everything here is internal to lima_trace; no stability promises.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_TEXTSCAN_H
#define LIMA_TRACE_TEXTSCAN_H

#include "support/Error.h"
#include "support/StringUtils.h"
#include "trace/Event.h"
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace lima {
namespace trace {
namespace scan {

/// The C-locale isspace() set, which is what splitWhitespace() and
/// trimString() match under the never-changed default locale.
inline bool isSpaceByte(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
         C == '\r';
}

/// Widest record is a message event (5 fields); one extra slot lets
/// every "wrong field count" check distinguish <= 5 from "too many".
inline constexpr size_t MaxFields = 6;

/// Tokenizes \p Line on whitespace runs into \p Fields[0..MaxFields).
/// Returns the number of fields stored, saturating at MaxFields (a
/// return of MaxFields means "MaxFields or more"); every grammar check
/// compares against counts <= 5, so saturation never changes a verdict.
inline size_t splitFields(std::string_view Line, std::string_view *Fields) {
  size_t N = 0;
  const char *P = Line.data();
  const char *End = P + Line.size();
  while (P != End) {
    while (P != End && isSpaceByte(*P))
      ++P;
    const char *Tok = P;
    while (P != End && !isSpaceByte(*P))
      ++P;
    if (P == Tok)
      break;
    Fields[N++] = std::string_view(Tok, static_cast<size_t>(P - Tok));
    if (N == MaxFields)
      break;
  }
  return N;
}

/// Left-trim only: line classification ("blank or comment?") never
/// looks past the first non-space byte.
inline std::string_view skipLeadingSpace(std::string_view Str) {
  size_t Begin = 0;
  while (Begin < Str.size() && isSpaceByte(Str[Begin]))
    ++Begin;
  return Str.substr(Begin);
}

/// parseUnsigned() semantics at from_chars speed.  Tokens from_chars
/// does not cleanly consume (leading '+', embedded 'x', overflow) are
/// re-parsed by the historical strtoull path so the accept set and the
/// error messages stay identical.
inline Expected<uint64_t> scanUnsigned(std::string_view Tok) {
  uint64_t Value;
  auto [Ptr, Ec] = std::from_chars(Tok.data(), Tok.data() + Tok.size(), Value);
  if (Ec == std::errc() && Ptr == Tok.data() + Tok.size())
    return Value;
  return parseUnsigned(Tok);
}

/// parseDouble() semantics at from_chars speed.  The fallback covers
/// everything from_chars and strtod disagree on: '+' signs, hex floats,
/// overflow/underflow (strtod's ERANGE becomes BadNumber) and subnormal
/// results (glibc flags those ERANGE too, from_chars does not).
inline Expected<double> scanDouble(std::string_view Tok) {
  double Value;
  auto [Ptr, Ec] = std::from_chars(Tok.data(), Tok.data() + Tok.size(), Value);
  if (Ec == std::errc() && Ptr == Tok.data() + Tok.size() &&
      (Value == 0.0 || std::fpclassify(Value) != FP_SUBNORMAL))
    return Value;
  return parseDouble(Tok);
}

/// Event mnemonic table ("re", "rx", "ab", "ae", "ms", "mr").
inline std::optional<EventKind> kindFromMnemonic(std::string_view Mnemonic) {
  if (Mnemonic.size() != 2)
    return std::nullopt;
  switch (Mnemonic[0]) {
  case 'r':
    if (Mnemonic[1] == 'e')
      return EventKind::RegionEnter;
    if (Mnemonic[1] == 'x')
      return EventKind::RegionExit;
    break;
  case 'a':
    if (Mnemonic[1] == 'b')
      return EventKind::ActivityBegin;
    if (Mnemonic[1] == 'e')
      return EventKind::ActivityEnd;
    break;
  case 'm':
    if (Mnemonic[1] == 's')
      return EventKind::MessageSend;
    if (Mnemonic[1] == 'r')
      return EventKind::MessageRecv;
    break;
  }
  return std::nullopt;
}

/// True when the first token of \p Line (left-trimmed, see
/// skipLeadingSpace) is a header directive: "procs", "region" or
/// "activity".  After the magic line, every substantive line that is
/// not a directive is an event record.
inline bool isDirectiveLine(std::string_view Line) {
  // Directives all start with 'p', 'r' or 'a'; cheap reject first.
  if (Line.empty() ||
      (Line.front() != 'p' && Line.front() != 'r' && Line.front() != 'a'))
    return false;
  size_t TokEnd = 0;
  while (TokEnd < Line.size() && !isSpaceByte(Line[TokEnd]))
    ++TokEnd;
  std::string_view Tok = Line.substr(0, TokEnd);
  return Tok == "procs" || Tok == "region" || Tok == "activity";
}

/// The name tables an event record validates against.  Parsers that
/// build a Trace pass the trace's table sizes; the stream parser passes
/// its own vectors' sizes.
struct EventTables {
  bool SawProcs = false;
  unsigned NumProcs = 0;
  size_t NumRegions = 0;
  size_t NumActivities = 0;
};

/// Parses \p Fields[0..NumFields) as one event record into \p E.
/// Grammar, range checks, error codes and messages are the historical
/// per-line parser's, verbatim; callers own drop-vs-abort policy.
inline Error parseEventFields(const std::string_view *Fields,
                              size_t NumFields, const EventTables &Tables,
                              size_t LineNo, size_t LineOffset, Event &E) {
  auto fail = [&](ErrorCode Code, const char *What) {
    return makeParseError(Code, LineNo, LineOffset, "trace line %zu: %s",
                          LineNo, What);
  };
  auto failNumber = [&](Error Err) {
    return makeParseError(ErrorCode::BadNumber, LineNo, LineOffset,
                          "trace line %zu: %s", LineNo,
                          Err.message().c_str());
  };

  std::optional<EventKind> Kind = kindFromMnemonic(Fields[0]);
  if (!Kind)
    return fail(ErrorCode::MalformedRecord, "unknown record type");
  if (!Tables.SawProcs)
    return fail(ErrorCode::MissingSection, "'procs' must precede events");
  bool IsMessage =
      *Kind == EventKind::MessageSend || *Kind == EventKind::MessageRecv;
  size_t Expect = IsMessage ? 5 : 4;
  if (NumFields != Expect)
    return fail(ErrorCode::MalformedRecord, "wrong field count for event");

  E.Kind = *Kind;
  auto ProcOrErr = scanUnsigned(Fields[1]);
  if (!ProcOrErr)
    return failNumber(ProcOrErr.takeError());
  if (*ProcOrErr >= Tables.NumProcs)
    return fail(ErrorCode::ValueOutOfRange, "event processor out of range");
  E.Proc = static_cast<uint32_t>(*ProcOrErr);
  auto TimeOrErr = scanDouble(Fields[2]);
  if (!TimeOrErr)
    return failNumber(TimeOrErr.takeError());
  // "inf" and "nan" parse as numbers; non-finite times break every
  // downstream time computation, so reject them at the boundary.
  if (!std::isfinite(*TimeOrErr) || *TimeOrErr < 0.0)
    return fail(ErrorCode::ValueOutOfRange,
                "event time must be finite and non-negative");
  E.Time = *TimeOrErr;
  auto IdOrErr = scanUnsigned(Fields[3]);
  if (!IdOrErr)
    return failNumber(IdOrErr.takeError());
  if (*IdOrErr > UINT32_MAX)
    return fail(ErrorCode::ValueOutOfRange, "event id overflows u32");
  E.Id = static_cast<uint32_t>(*IdOrErr);
  switch (E.Kind) {
  case EventKind::RegionEnter:
  case EventKind::RegionExit:
    if (E.Id >= Tables.NumRegions)
      return fail(ErrorCode::ValueOutOfRange, "event region out of range");
    break;
  case EventKind::ActivityBegin:
  case EventKind::ActivityEnd:
    if (E.Id >= Tables.NumActivities)
      return fail(ErrorCode::ValueOutOfRange, "event activity out of range");
    break;
  case EventKind::MessageSend:
  case EventKind::MessageRecv:
    if (E.Id >= Tables.NumProcs)
      return fail(ErrorCode::ValueOutOfRange, "message peer out of range");
    break;
  }
  if (IsMessage) {
    auto BytesOrErr = scanUnsigned(Fields[4]);
    if (!BytesOrErr)
      return failNumber(BytesOrErr.takeError());
    E.Bytes = *BytesOrErr;
  }
  return Error::success();
}

/// Advances \p P past a run of space bytes.
inline void skipSpace(const char *&P, const char *End) {
  while (P != End && isSpaceByte(*P))
    ++P;
}

/// True when a token parsed up to \p Ptr ends there: at the end of the
/// line or at a space byte.  That is exactly when from_chars consumed
/// the whole whitespace-delimited token, i.e. when scanUnsigned and
/// scanDouble would have taken their fast path on it.
inline bool tokenEndsAt(const char *Ptr, const char *End) {
  return Ptr == End || isSpaceByte(*Ptr);
}

inline bool cursorUnsigned(const char *&P, const char *End, uint64_t &Value) {
  auto [Ptr, Ec] = std::from_chars(P, End, Value);
  if (Ec != std::errc() || !tokenEndsAt(Ptr, End))
    return false;
  P = Ptr;
  return true;
}

/// Single-pass scan of the event record \p Line (left-trimmed, not a
/// directive).  Returns true and fills every field of \p E only when
/// parseEventFields would accept the line with the same Event; returns
/// false, leaving \p E untouched, for every other line (including
/// valid ones whose numbers need the strtoX fallback, such as "+1").
/// Defined out of line, in one translation unit: it is every parser's
/// per-event hot path, and an inline copy would be compiled differently
/// in each including file with the linker keeping an arbitrary one.
bool scanEventCursor(std::string_view Line, const EventTables &Tables,
                     Event &E);

/// Parses the event record \p Line (left-trimmed, non-empty, not a
/// comment and not a directive) into \p E.  The cursor handles every
/// line it can accept; the rest are split and checked in the historical
/// order, so errors keep their code, message, line and offset.
inline Error parseEventRecord(std::string_view Line, const EventTables &Tables,
                              size_t LineNo, size_t LineOffset, Event &E) {
  if (scanEventCursor(Line, Tables, E))
    return Error::success();
  std::string_view Fields[MaxFields];
  size_t NumFields = splitFields(Line, Fields);
  return parseEventFields(Fields, NumFields, Tables, LineNo, LineOffset, E);
}

/// The processor of the event record \p Line (left-trimmed) as
/// parseEventFields reads it: the second whitespace-delimited token,
/// through scanUnsigned.  Any line parseEventRecord accepts carries
/// exactly this processor, so counting these over a run of lines bounds
/// how many events each processor gets from it.  nullopt when there is
/// no second token or it is not a number.
inline std::optional<uint64_t> eventProcField(std::string_view Line) {
  const char *P = Line.data();
  const char *End = P + Line.size();
  // Fast path for the common shape, a two-byte mnemonic, one space and
  // a short run of decimal digits ending the token: the value from_chars
  // would give, without its call.
  if (Line.size() > 3 && Line[2] == ' ') {
    const char *D = P + 3;
    const char *Stop = std::min(End, D + 9); // 9 digits cannot overflow
    uint64_t Value = 0;
    while (D != Stop && *D >= '0' && *D <= '9')
      Value = Value * 10 + uint64_t(*D++ - '0');
    if (D != P + 3 && (D == End || isSpaceByte(*D)))
      return Value;
  }
  while (P != End && !isSpaceByte(*P))
    ++P;
  skipSpace(P, End);
  const char *Tok = P;
  while (P != End && !isSpaceByte(*P))
    ++P;
  if (P == Tok)
    return std::nullopt;
  uint64_t Value;
  auto [Ptr, Ec] = std::from_chars(Tok, P, Value);
  if (Ec == std::errc() && Ptr == P)
    return Value; // scanUnsigned's fast path, without its Expected
  auto ProcOrErr = scanUnsigned(std::string_view(Tok, size_t(P - Tok)));
  if (!ProcOrErr) {
    ProcOrErr.takeError().consume();
    return std::nullopt;
  }
  return *ProcOrErr;
}

/// Heap bytes a registered name of \p Len bytes actually costs: the
/// std::string header always, plus the out-of-line buffer only past the
/// small-string capacity.  This is the tightened ParseLimits accounting
/// the zero-alloc scanner charges (the legacy parser over-charged short
/// names by their length and ignored SSO entirely).
inline uint64_t nameAllocCost(size_t Len) {
  static const size_t SsoCapacity = std::string().capacity();
  return sizeof(std::string) + (Len > SsoCapacity ? Len + 1 : 0);
}

} // namespace scan
} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_TEXTSCAN_H
