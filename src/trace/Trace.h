//===- trace/Trace.h - Trace container and validation -----------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Trace container: named regions and activities plus per-processor
/// event streams, with structural validation (balanced brackets, monotone
/// per-processor time, matching message endpoints).
///
/// Events are stored struct-of-arrays: each processor's stream is four
/// parallel columns (time, kind, id, bytes) rather than a vector of
/// Event records.  Analysis passes that touch only a subset of the
/// fields (the reduction never reads Bytes, the statistics never read
/// Id except on sends) stream proportionally fewer bytes, and bulk
/// parsers can size the columns up front and write decoded events
/// straight into their final positions.  The LIMB decoders and the
/// sharded text parser both do (the text parser counts each shard's
/// event lines per processor first, so every shard knows where its
/// events go); only the sequential text parser appends.  Consumers
/// iterate through Trace::EventsRef, which materializes Event values on
/// access, so range-for loops over events(P) read exactly as before.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_TRACE_H
#define LIMA_TRACE_TRACE_H

#include "support/Error.h"
#include "trace/Event.h"
#include <cstddef>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lima {
namespace trace {

/// Append-only table of unique names; a name's id is its position.
/// Lookup by name is one hash probe, so declaring N names and checking
/// each for a repeat (every trace reader does) costs O(N), not O(N^2).
class NameTable {
public:
  static constexpr uint32_t NotFound = UINT32_MAX;

  /// Appends \p Name unless the table already holds it; true if added.
  bool insert(std::string Name);

  /// Id of \p Name, or NotFound.
  uint32_t find(std::string_view Name) const;

  size_t size() const { return Names.size(); }
  const std::string &operator[](size_t Id) const { return Names[Id]; }
  const std::vector<std::string> &names() const { return Names; }

private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>{}(S);
    }
  };

  std::vector<std::string> Names;
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> Ids;
};

/// A complete post-mortem trace of one program execution.
///
/// Events are kept per processor in append order, which validation checks
/// is non-decreasing in time.  Region and activity ids index the name
/// tables registered up front.
class Trace {
  /// std::allocator, except that a value-less construct default-
  /// initializes: growing a column by resize leaves the new slots for
  /// the bulk writer to fill instead of zeroing memory it is about to
  /// overwrite (and the first touch of each page falls to the writer).
  template <typename T>
  struct UninitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = UninitAllocator<U>;
    };
    UninitAllocator() = default;
    template <typename U>
    UninitAllocator(const UninitAllocator<U> &) noexcept {}
    template <typename U>
    void construct(U *P) {
      ::new (static_cast<void *>(P)) U;
    }
    template <typename U, typename... Args>
    void construct(U *P, Args &&...A) {
      ::new (static_cast<void *>(P)) U(std::forward<Args>(A)...);
    }
  };
  template <typename T>
  using Column = std::vector<T, UninitAllocator<T>>;

  /// One processor's event stream, columnar.
  struct Stream {
    Column<double> Times;
    Column<EventKind> Kinds;
    Column<uint32_t> Ids;
    Column<uint64_t> Bytes;

    size_t size() const { return Times.size(); }
    void resize(size_t N) {
      Times.resize(N);
      Kinds.resize(N);
      Ids.resize(N);
      Bytes.resize(N);
    }
  };

public:
  /// Random-access view of one processor's events.  Dereferencing
  /// materializes an Event value from the columns; the view is
  /// invalidated by any mutation of the stream it refers to.
  class EventsRef {
  public:
    Event operator[](size_t I) const {
      return {S->Times[I], Proc, S->Kinds[I], S->Ids[I], S->Bytes[I]};
    }
    size_t size() const { return S->size(); }
    bool empty() const { return S->size() == 0; }
    Event front() const { return (*this)[0]; }
    Event back() const { return (*this)[S->size() - 1]; }

    /// Direct column access for bandwidth-sensitive passes that only
    /// touch a subset of the event fields.
    const double *times() const { return S->Times.data(); }
    const EventKind *kinds() const { return S->Kinds.data(); }
    const uint32_t *ids() const { return S->Ids.data(); }
    const uint64_t *bytes() const { return S->Bytes.data(); }

    class iterator {
    public:
      using iterator_category = std::input_iterator_tag;
      using value_type = Event;
      using difference_type = std::ptrdiff_t;
      using pointer = const Event *;
      using reference = Event;

      iterator() = default;
      iterator(const EventsRef *Ref, size_t I) : Ref(Ref), I(I) {}
      Event operator*() const { return (*Ref)[I]; }
      iterator &operator++() {
        ++I;
        return *this;
      }
      iterator operator++(int) {
        iterator Old = *this;
        ++I;
        return Old;
      }
      bool operator==(const iterator &O) const { return I == O.I; }
      bool operator!=(const iterator &O) const { return I != O.I; }

    private:
      const EventsRef *Ref = nullptr;
      size_t I = 0;
    };

    iterator begin() const { return iterator(this, 0); }
    iterator end() const { return iterator(this, S->size()); }

  private:
    friend class Trace;
    EventsRef(const Stream *S, uint32_t Proc) : S(S), Proc(Proc) {}
    const Stream *S;
    uint32_t Proc;
  };

  /// Mutable raw columns of one processor's stream, for bulk decoders
  /// that pre-size with resizeStream and write events in place.  The
  /// writer is responsible for range-validating ids (append's asserts
  /// are bypassed) and for truncateStream when fewer events than sized
  /// were written.
  struct StreamColumns {
    double *Times;
    EventKind *Kinds;
    uint32_t *Ids;
    uint64_t *Bytes;

    /// Moves events [From, From + N) to [To, To + N) in every column
    /// (the ranges may overlap); bulk decoders close the gaps lenient
    /// drops leave with it.
    void move(size_t From, size_t To, size_t N) const {
      std::memmove(Times + To, Times + From, N * sizeof(*Times));
      std::memmove(Kinds + To, Kinds + From, N * sizeof(*Kinds));
      std::memmove(Ids + To, Ids + From, N * sizeof(*Ids));
      std::memmove(Bytes + To, Bytes + From, N * sizeof(*Bytes));
    }
  };

  /// Creates a trace for \p NumProcs processors.
  explicit Trace(unsigned NumProcs);

  unsigned numProcs() const { return static_cast<unsigned>(Streams.size()); }

  /// Registers a region name, returning its id.  Names must be unique.
  uint32_t addRegion(std::string Name);

  /// Registers an activity name, returning its id.  Names must be unique.
  uint32_t addActivity(std::string Name);

  size_t numRegions() const { return Regions.size(); }
  size_t numActivities() const { return Activities.size(); }

  const std::string &regionName(uint32_t Id) const;
  const std::string &activityName(uint32_t Id) const;
  const std::vector<std::string> &regionNames() const {
    return Regions.names();
  }
  const std::vector<std::string> &activityNames() const {
    return Activities.names();
  }

  /// Looks up a region id by name (one hash probe); InvalidId when
  /// absent.
  static constexpr uint32_t InvalidId = NameTable::NotFound;
  uint32_t findRegion(std::string_view Name) const;
  uint32_t findActivity(std::string_view Name) const;

  /// Installs the name tables of a parser that range-checked every
  /// event against them itself, replacing any registered so far.
  void setNames(NameTable Regions, NameTable Activities);

  /// Appends \p E to its processor's stream.  Asserts on out-of-range
  /// processor/region/activity ids.
  void append(const Event &E);

  /// append() without the id checks, for a parser that has checked \p E
  /// against the name tables it installs later with setNames.
  void appendUnchecked(const Event &E);

  /// Events of processor \p Proc in append order.
  EventsRef events(unsigned Proc) const;

  /// Pre-sizes processor \p Proc's stream to exactly \p N events so a
  /// bulk decoder can fill the columns in place via streamColumns.
  /// Existing events are kept for indices below \p N; the new slots
  /// are uninitialized, and the caller writes every one of them or
  /// truncates the stream to the ones it wrote.
  void resizeStream(unsigned Proc, size_t N);

  /// Shrinks processor \p Proc's stream to its first \p N events (used
  /// after a lenient bulk decode dropped records out of a pre-sized
  /// stream).
  void truncateStream(unsigned Proc, size_t N);

  /// Mutable columns of processor \p Proc's stream.  Pointers are
  /// invalidated by append/resizeStream/truncateStream.
  StreamColumns streamColumns(unsigned Proc);

  /// Total number of events across all processors.
  size_t numEvents() const;

  /// Structural validation: every processor's stream passes the strict
  /// policy of trace::ProcessorWalker (EventWalker.h) — monotone time,
  /// nested regions (routines > loops > statements), balanced activities
  /// inside one region — and every MessageSend has a matching
  /// MessageRecv on the peer with the same byte count, and vice versa.
  Error validate() const;

private:
  NameTable Regions;
  NameTable Activities;
  std::vector<Stream> Streams;
};

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_TRACE_H
