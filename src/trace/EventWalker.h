//===- trace/EventWalker.h - Per-processor structural walker ----*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one implementation of per-processor trace structure.  A
/// ProcessorWalker owns a processor's region stack, open activity and
/// its begin time, clock and event index, and applies the rules of one
/// of the two parse modes to each event:
///
///  - Strict: Trace::validate's rules (finite, non-negative, monotone
///    times; nested regions whose exits match the innermost open one;
///    non-overlapping activities inside one region).  The first
///    violation stops the processor with an error.
///  - Lenient: reduceTrace's drop rules.  A region exit on an empty
///    stack, an activity bracket outside any region, and an activity
///    end without a begin or before it are dropped and counted.  All else
///    is accepted as is: an exit pops the innermost region, a begin
///    replaces an open activity, an end closes it under the begin's id.
///
/// Every event advances the clock.  Accepted events go to a sink bound at
/// compile time.  TraceWalk walks a whole trace, serially or sharded over
/// processors, and merges per-processor outcomes in processor order.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_EVENTWALKER_H
#define LIMA_TRACE_EVENTWALKER_H

#include "support/ParseLimits.h"
#include "trace/Trace.h"
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

namespace lima {
namespace trace {

/// One open region.  Tag belongs to the sink: whatever its regionEnter
/// returned for this frame.
struct WalkFrame {
  uint32_t Region;
  size_t Tag;
};

/// A processor's structure state, as sinks see it in their callbacks.
struct WalkState {
  unsigned Proc = 0;
  /// Open regions, innermost last.
  std::vector<WalkFrame> Stack;
  /// Open activity id (Trace::InvalidId when none) and its begin time.
  uint32_t OpenActivity = Trace::InvalidId;
  double ActivityBegin = 0.0;
  /// Latest event time seen, dropped events included.
  double Clock = 0.0;
  /// Events seen, including the one being handled.
  size_t Index = 0;

  bool activityOpen() const { return OpenActivity != Trace::InvalidId; }
};

/// The sink contract with no-op defaults; a sink derives from it and
/// hides what it needs.  Each callback runs after the walker accepted
/// the event and updated its state.  TraceWalk reads Bytes only for
/// message events (it is zero otherwise).
struct WalkSink {
  /// The entered region's frame is on top of S.Stack; the return value
  /// becomes its Tag.
  size_t regionEnter(const Event &, const WalkState &) { return 0; }
  void regionExit(const Event &, const WalkState &) {}
  /// Closed interval [Begin, E.Time) of \p Activity, inside the
  /// innermost open region S.Stack.back().
  void activityEnd(const Event &, const WalkState &, uint32_t, double) {}
  void message(const Event &, const WalkState &) {}
};

class ProcessorWalker {
public:
  /// Lenient drops are counted into \p Drops when it is non-null.
  ProcessorWalker(unsigned Proc, ParseMode Mode, ParseReport *Drops = nullptr)
      : Mode(Mode), Drops(Drops) { S.Proc = Proc; }

  const WalkState &state() const { return S; }

  /// The strict violation that stopped this processor.
  ParseError &error() { return Failure; }

  /// Applies \p E; false when a strict violation stopped the processor.
  template <class Sink>
  bool step(const Event &E, Sink &Out) {
    return Mode == ParseMode::Strict ? stepAs<true>(E, Out)
                                     : stepAs<false>(E, Out);
  }

  /// step() with the mode fixed at compile time, for hot loops.
  template <bool Strict, class Sink>
  bool stepAs(const Event &E, Sink &Out) {
    size_t I = S.Index++;
    if (Strict && (!std::isfinite(E.Time) || E.Time < 0.0))
      return fail(makeCodedError(ErrorCode::ValueOutOfRange,
                                 "proc %u event %zu: time %.9f is not finite "
                                 "and non-negative",
                                 S.Proc, I, E.Time));
    if (Strict && E.Time + 1e-12 < S.Clock)
      return fail(makeCodedError(ErrorCode::StructuralError,
                                 "proc %u event %zu: time goes backwards "
                                 "(%.9f after %.9f)",
                                 S.Proc, I, E.Time, S.Clock));
    S.Clock = std::max(S.Clock, E.Time);

    switch (E.Kind) {
    case EventKind::RegionEnter:
      if (Strict && S.activityOpen())
        return reject(I, "region enters while an activity is open");
      S.Stack.push_back({E.Id, 0});
      S.Stack.back().Tag = Out.regionEnter(E, S);
      return true;
    case EventKind::RegionExit:
      if (S.Stack.empty())
        return reject(I, "region exit without matching enter");
      if (Strict && E.Id != S.Stack.back().Region)
        return reject(I, "region exit id " + std::to_string(E.Id) +
                             " does not match innermost open region " +
                             std::to_string(S.Stack.back().Region));
      if (Strict && S.activityOpen())
        return reject(I, "region exits while an activity is open");
      S.Stack.pop_back();
      Out.regionExit(E, S);
      return true;
    case EventKind::ActivityBegin:
      if (S.Stack.empty())
        return reject(I, "activity begins outside any region");
      if (Strict && S.activityOpen())
        return reject(I, "overlapping activities");
      S.OpenActivity = E.Id;
      S.ActivityBegin = E.Time;
      return true;
    case EventKind::ActivityEnd:
      // Strict never has an activity open outside a region, so an end
      // on an empty stack is an end without a begin there.
      if (!Strict && S.Stack.empty())
        return reject(I, "activity ends outside any region");
      if (!S.activityOpen())
        return reject(I, "activity end without matching begin");
      if (Strict && E.Id != S.OpenActivity)
        return reject(I, "activity end id " + std::to_string(E.Id) +
                             " does not match open activity " +
                             std::to_string(S.OpenActivity));
      // Lenient has no clock rule, so an end can precede its begin;
      // strict lets one through only within its clock tolerance, and
      // that interval counts as empty.
      if (!(E.Time >= S.ActivityBegin)) {
        if (!Strict)
          return reject(I, "activity ends before it begins");
        S.ActivityBegin = E.Time;
      }
      Out.activityEnd(E, S, std::exchange(S.OpenActivity, Trace::InvalidId),
                      S.ActivityBegin);
      return true;
    case EventKind::MessageSend:
    case EventKind::MessageRecv:
      Out.message(E, S);
      return true;
    }
    return true;
  }

private:
  bool fail(Error Err) {
    Failure = Err.toParseError();
    return false;
  }

  /// A structurally impossible event: strict stops, lenient drops it.
  bool reject(size_t I, const std::string &What) {
    ParseError PE{ErrorCode::StructuralError, 0, NoByteOffset,
                  "proc " + std::to_string(S.Proc) + " event " +
                      std::to_string(I) + ": " + What};
    if (Mode == ParseMode::Strict) {
      Failure = std::move(PE);
      return false;
    }
    if (Drops)
      Drops->addDrop(std::move(PE));
    return true;
  }

  ParseMode Mode;
  ParseReport *Drops;
  WalkState S;
  ParseError Failure;
};

/// A whole-trace walk with per-processor outcome slots.  walk() may run
/// concurrently for distinct processors; finish() merges the slots in
/// processor order.
class TraceWalk {
public:
  /// A successful finish() merges record totals and drops into \p Report.
  TraceWalk(const Trace &T, ParseMode Mode, ParseReport *Report = nullptr)
      : T(T), Mode(Mode), Report(Report), Clocks(T.numProcs(), 0.0),
        Errors(T.numProcs()), Reports(Report ? T.numProcs() : 0),
        Tallies(Mode == ParseMode::Strict ? T.numProcs() : 0) {}

  /// Walks processor \p Proc's stream into \p Out; false when a strict
  /// violation stopped it.
  template <class Sink>
  bool walk(unsigned Proc, Sink &Out) {
    return Mode == ParseMode::Strict ? walkAs<true>(Proc, Out)
                                     : walkAs<false>(Proc, Out);
  }

  /// Strict: the first failed processor's error, else the first
  /// unbalanced (sender, receiver, bytes) channel in key order.
  Error finish() {
    for (std::optional<ParseError> &Err : Errors)
      if (Err)
        return Error::fromParse(std::move(*Err));
    std::map<Channel, int64_t> Balance;
    for (const auto &Tally : Tallies)
      for (const auto &[Key, Count] : Tally)
        Balance[Key] += Count;
    for (const auto &[Key, Count] : Balance)
      if (Count != 0)
        return makeCodedError(
            ErrorCode::StructuralError,
            "unmatched message %u -> %u (%llu bytes): balance %lld",
            std::get<0>(Key), std::get<1>(Key),
            static_cast<unsigned long long>(std::get<2>(Key)),
            static_cast<long long>(Count));
    for (const ParseReport &Shard : Reports)
      Report->merge(Shard);
    return Error::success();
  }

  /// Latest event time over all walked processors.
  double span() const {
    return *std::max_element(Clocks.begin(), Clocks.end());
  }

private:
  using Channel = std::tuple<uint32_t, uint32_t, uint64_t>;

  template <bool Strict, class Sink>
  bool walkAs(unsigned Proc, Sink &Out) {
    ParseReport *Drops = Report ? &Reports[Proc] : nullptr;
    ProcessorWalker W(Proc, Mode, Drops);
    const Trace::EventsRef Stream = T.events(Proc);
    if (Drops)
      Drops->TotalRecords += Stream.size();
    // Only messages read the byte-count column; no sink needs the rest.
    const double *Times = Stream.times();
    const EventKind *Kinds = Stream.kinds();
    const uint32_t *Ids = Stream.ids();
    bool Ok = true;
    for (size_t I = 0; Ok && I != Stream.size(); ++I) {
      EventKind Kind = Kinds[I];
      bool Message =
          Kind == EventKind::MessageSend || Kind == EventKind::MessageRecv;
      const Event E{Times[I], Proc, Kind, Ids[I],
                    Message ? Stream.bytes()[I] : 0};
      Ok = W.template stepAs<Strict>(E, Out);
      if (!Strict || !Message)
        continue;
      if (Kind == EventKind::MessageSend)
        ++Tallies[Proc][{Proc, E.Id, E.Bytes}];
      else
        --Tallies[Proc][{E.Id, Proc, E.Bytes}];
    }
    Clocks[Proc] = W.state().Clock;
    // Strict streams close every region; an open activity implies one.
    if (!Ok)
      Errors[Proc] = std::move(W.error());
    else if (Strict && !W.state().Stack.empty())
      Errors[Proc] = ParseError{ErrorCode::StructuralError, 0, NoByteOffset,
                                "proc " + std::to_string(Proc) +
                                    ": region left open at end of trace"};
    return !Errors[Proc];
  }

  const Trace &T;
  ParseMode Mode;
  ParseReport *Report;
  std::vector<double> Clocks;
  std::vector<std::optional<ParseError>> Errors;
  std::vector<ParseReport> Reports;
  /// Strict only: per-processor message balance partials.
  std::vector<std::map<Channel, int64_t>> Tallies;
};

/// Strict serial walk of \p T into one sink: the walk behind
/// Trace::validate and the analyses that validate as they go.
template <class Sink>
Error walkTrace(const Trace &T, Sink &Out) {
  TraceWalk Walk(T, ParseMode::Strict);
  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc)
    if (!Walk.walk(Proc, Out))
      break;
  return Walk.finish();
}

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_EVENTWALKER_H
