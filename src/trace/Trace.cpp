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

bool NameTable::insert(std::string Name) {
  auto [It, Added] =
      Ids.try_emplace(Name, static_cast<uint32_t>(Names.size()));
  if (Added)
    Names.push_back(std::move(Name));
  return Added;
}

uint32_t NameTable::find(std::string_view Name) const {
  auto It = Ids.find(Name);
  return It == Ids.end() ? NotFound : It->second;
}

uint32_t Trace::addRegion(std::string Name) {
  [[maybe_unused]] bool Added = Regions.insert(std::move(Name));
  assert(Added && "duplicate region name");
  return static_cast<uint32_t>(Regions.size() - 1);
}

uint32_t Trace::addActivity(std::string Name) {
  [[maybe_unused]] bool Added = Activities.insert(std::move(Name));
  assert(Added && "duplicate activity name");
  return static_cast<uint32_t>(Activities.size() - 1);
}

const std::string &Trace::regionName(uint32_t Id) const {
  assert(Id < Regions.size() && "region id out of range");
  return Regions[Id];
}

const std::string &Trace::activityName(uint32_t Id) const {
  assert(Id < Activities.size() && "activity id out of range");
  return Activities[Id];
}

uint32_t Trace::findRegion(std::string_view Name) const {
  return Regions.find(Name);
}

uint32_t Trace::findActivity(std::string_view Name) const {
  return Activities.find(Name);
}

void Trace::setNames(NameTable RegionNames, NameTable ActivityNames) {
  Regions = std::move(RegionNames);
  Activities = std::move(ActivityNames);
}

void Trace::append(const Event &E) {
  assert(E.Proc < Streams.size() && "event processor out of range");
  switch (E.Kind) {
  case EventKind::RegionEnter:
  case EventKind::RegionExit:
    assert(E.Id < Regions.size() && "event region out of range");
    break;
  case EventKind::ActivityBegin:
  case EventKind::ActivityEnd:
    assert(E.Id < Activities.size() && "event activity out of range");
    break;
  case EventKind::MessageSend:
  case EventKind::MessageRecv:
    assert(E.Id < Streams.size() && "message peer out of range");
    break;
  }
  appendUnchecked(E);
}

void Trace::appendUnchecked(const Event &E) {
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
