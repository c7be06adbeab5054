//===- trace/TextScan.cpp - Single-pass event-record cursor ---------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/TextScan.h"

using namespace lima;
using namespace lima::trace;

// Every accepted event line runs this function.  The text parsers'
// speed moved by several percent with its offset within a 64-byte line,
// which shifts with unrelated edits elsewhere in the binary; the
// alignment pins that offset.
__attribute__((aligned(64))) bool
scan::scanEventCursor(std::string_view Line, const EventTables &Tables,
                      Event &E) {
  // Mnemonics are two bytes, and the token must end there.
  if (Line.size() < 3 || !isSpaceByte(Line[2]) || !Tables.SawProcs)
    return false;
  std::optional<EventKind> Kind = kindFromMnemonic(Line.substr(0, 2));
  if (!Kind)
    return false;
  const char *P = Line.data() + 2;
  const char *End = Line.data() + Line.size();

  uint64_t Proc = 0;
  skipSpace(P, End);
  if (!cursorUnsigned(P, End, Proc) || Proc >= Tables.NumProcs)
    return false;

  double Time = 0.0;
  skipSpace(P, End);
  auto [TimeEnd, TimeEc] = std::from_chars(P, End, Time);
  if (TimeEc != std::errc() || !tokenEndsAt(TimeEnd, End) ||
      (Time != 0.0 && std::fpclassify(Time) == FP_SUBNORMAL) ||
      !std::isfinite(Time) || Time < 0.0)
    return false;
  P = TimeEnd;

  uint64_t Id = 0;
  skipSpace(P, End);
  if (!cursorUnsigned(P, End, Id) || Id > UINT32_MAX)
    return false;
  uint64_t Bytes = 0;
  switch (*Kind) {
  case EventKind::RegionEnter:
  case EventKind::RegionExit:
    if (Id >= Tables.NumRegions)
      return false;
    break;
  case EventKind::ActivityBegin:
  case EventKind::ActivityEnd:
    if (Id >= Tables.NumActivities)
      return false;
    break;
  case EventKind::MessageSend:
  case EventKind::MessageRecv:
    if (Id >= Tables.NumProcs)
      return false;
    skipSpace(P, End);
    if (!cursorUnsigned(P, End, Bytes))
      return false;
    break;
  }
  skipSpace(P, End);
  if (P != End)
    return false; // A surplus field: "wrong field count".

  E.Time = Time;
  E.Proc = static_cast<uint32_t>(Proc);
  E.Kind = *Kind;
  E.Id = static_cast<uint32_t>(Id);
  E.Bytes = Bytes;
  return true;
}
