//===- trace/Trace.cpp - Trace container and validation -------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"
#include "trace/EventWalker.h"
#include <cassert>

using namespace lima;
using namespace lima::trace;

Trace::Trace(unsigned NumProcs) : Streams(NumProcs) {
  assert(NumProcs > 0 && "trace needs at least one processor");
}

uint32_t Trace::addRegion(std::string Name) {
  assert(findRegion(Name) == InvalidId && "duplicate region name");
  RegionNames.push_back(std::move(Name));
  return static_cast<uint32_t>(RegionNames.size() - 1);
}

uint32_t Trace::addActivity(std::string Name) {
  assert(findActivity(Name) == InvalidId && "duplicate activity name");
  ActivityNames.push_back(std::move(Name));
  return static_cast<uint32_t>(ActivityNames.size() - 1);
}

const std::string &Trace::regionName(uint32_t Id) const {
  assert(Id < RegionNames.size() && "region id out of range");
  return RegionNames[Id];
}

const std::string &Trace::activityName(uint32_t Id) const {
  assert(Id < ActivityNames.size() && "activity id out of range");
  return ActivityNames[Id];
}

uint32_t Trace::findRegion(std::string_view Name) const {
  for (size_t I = 0; I != RegionNames.size(); ++I)
    if (RegionNames[I] == Name)
      return static_cast<uint32_t>(I);
  return InvalidId;
}

uint32_t Trace::findActivity(std::string_view Name) const {
  for (size_t I = 0; I != ActivityNames.size(); ++I)
    if (ActivityNames[I] == Name)
      return static_cast<uint32_t>(I);
  return InvalidId;
}

void Trace::append(const Event &E) {
  assert(E.Proc < Streams.size() && "event processor out of range");
  switch (E.Kind) {
  case EventKind::RegionEnter:
  case EventKind::RegionExit:
    assert(E.Id < RegionNames.size() && "event region out of range");
    break;
  case EventKind::ActivityBegin:
  case EventKind::ActivityEnd:
    assert(E.Id < ActivityNames.size() && "event activity out of range");
    break;
  case EventKind::MessageSend:
  case EventKind::MessageRecv:
    assert(E.Id < Streams.size() && "message peer out of range");
    break;
  }
  Stream &S = Streams[E.Proc];
  S.Times.push_back(E.Time);
  S.Kinds.push_back(E.Kind);
  S.Ids.push_back(E.Id);
  S.Bytes.push_back(E.Bytes);
}

Trace::EventsRef Trace::events(unsigned Proc) const {
  assert(Proc < Streams.size() && "processor out of range");
  return EventsRef(&Streams[Proc], Proc);
}

void Trace::resizeStream(unsigned Proc, size_t N) {
  assert(Proc < Streams.size() && "processor out of range");
  Streams[Proc].resize(N);
}

void Trace::truncateStream(unsigned Proc, size_t N) {
  assert(Proc < Streams.size() && "processor out of range");
  assert(N <= Streams[Proc].size() && "truncation cannot grow a stream");
  Streams[Proc].resize(N);
}

Trace::StreamColumns Trace::streamColumns(unsigned Proc) {
  assert(Proc < Streams.size() && "processor out of range");
  Stream &S = Streams[Proc];
  return {S.Times.data(), S.Kinds.data(), S.Ids.data(), S.Bytes.data()};
}

size_t Trace::numEvents() const {
  size_t Total = 0;
  for (const auto &Stream : Streams)
    Total += Stream.size();
  return Total;
}

Error Trace::validate() const {
  WalkSink Structure;
  return walkTrace(*this, Structure);
}
