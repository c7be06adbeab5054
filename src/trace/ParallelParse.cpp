//===- trace/ParallelParse.cpp - Sharded LIMATRACE text parsing -----------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Structure of a parallel parse:
//
//   prologue   sequential TextTraceParser until the first event line
//   scan       shard the rest at newline boundaries; per shard, count
//              lines, look for stray directives and count event lines
//              per processor (pass A, parallel)
//   place      size each processor's stream once; a prefix sum over
//              the per-shard counts gives every shard its destination
//              range in each stream (file order)
//   parse      per shard, run the shared event-record grammar and write
//              each accepted event straight into its processor's stream
//              + a shard-local ParseReport (pass B, parallel)
//   merge      fold shard reports in shard order; slide out the gaps
//              lenient drops left (sequential, rare)
//
// Shards outnumber threads, and the threads claim them one at a time,
// so a thread that runs slow (a busy core, a denser shard) takes fewer
// shards instead of holding up the others at the end of the pass.
//
// Everything that could make the sharded result differ from the
// sequential one — a directive in the event section (it would mutate
// the tables later events validate against), or an event-count /
// allocation limit that could trip midway (the failing line depends on
// global position) — is caught after pass A and routed to the
// sequential parser instead.  That keeps the fast path simple and the
// equivalence argument airtight: shards only ever parse self-contained
// event lines against frozen tables, with limits proven untrippable up
// front.
//
//===----------------------------------------------------------------------===//

#include "trace/ParallelParse.h"
#include "support/MappedFile.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"
#include "trace/TextParserDetail.h"
#include <algorithm>
#include <atomic>
#include <cstring>
#include <optional>

using namespace lima;
using namespace lima::trace;

namespace {

/// Below this many event-section bytes the pool overhead outweighs the
/// parse; run sequentially.
constexpr size_t MinParallelBytes = 64 * 1024;

/// Shards per thread: enough that the threads finish a pass together
/// when one of them runs slow, few enough that the per-shard tables
/// stay small.
constexpr unsigned ShardsPerThread = 4;

struct Shard {
  size_t Begin = 0; ///< Lines starting in [Begin, End) belong here.
  size_t End = 0;
  bool Last = false; ///< Owns the trailing unterminated segment.

  // Pass A results.
  uint64_t Lines = 0;
  bool SawDirective = false;
  /// Per processor: pass A counts the lines whose processor field names
  /// it (an upper bound on the events pass B accepts for it); placement
  /// turns each count into the index of the shard's first event in that
  /// processor's stream.
  std::vector<uint64_t> Slots;

  // Pass B inputs/results.
  size_t FirstLineNo = 0; ///< 1-based number of the shard's first line.
  std::vector<uint64_t> Next; ///< Per processor: next index to write.
  bool Overflow = false; ///< A processor got more events than counted.
  ParseReport Report;
  std::optional<ParseError> Err;
};

/// Runs \p Body(I) for every I in [0, N) on up to \p Threads threads
/// that each claim the next unclaimed index until none is left.
template <typename Fn>
void forEachClaimed(size_t N, unsigned Threads, Fn &&Body) {
  std::atomic<size_t> NextIndex{0};
  parallelFor(std::min<size_t>(Threads, N), Threads, [&](size_t) {
    size_t I;
    while ((I = NextIndex.fetch_add(1, std::memory_order_relaxed)) < N)
      Body(I);
  });
}

/// Calls \p F(Begin, End) for every line segment starting in
/// [\p Begin, \p End), replicating splitString(Text, '\n') segmentation:
/// the shard marked Last additionally owns the final (possibly empty)
/// segment after the last '\n' of the input.  Stops early when \p F
/// returns false.
template <typename Fn>
void forEachSegment(std::string_view Text, const Shard &S, Fn &&F) {
  size_t Pos = S.Begin;
  bool Trailing = S.Last;
  while (Pos < S.End) {
    const void *Nl = std::memchr(Text.data() + Pos, '\n', S.End - Pos);
    if (!Nl) {
      // Unterminated final line; only the last shard can get here.
      F(Pos, S.End);
      return;
    }
    size_t SegEnd =
        static_cast<size_t>(static_cast<const char *>(Nl) - Text.data());
    if (!F(Pos, SegEnd))
      return;
    Pos = SegEnd + 1;
  }
  if (Trailing)
    F(S.End, S.End);
}

/// Pass A: line count, directive detection and per-processor event-line
/// counts for one shard.
void scanShard(std::string_view Text, Shard &S, unsigned NumProcs) {
  S.Slots.assign(NumProcs, 0);
  forEachSegment(Text, S, [&](size_t Begin, size_t End) {
    ++S.Lines;
    std::string_view Line =
        scan::skipLeadingSpace(Text.substr(Begin, End - Begin));
    if (Line.empty() || Line.front() == '#')
      return true;
    if (scan::isDirectiveLine(Line)) {
      S.SawDirective = true;
      return true;
    }
    std::optional<uint64_t> Proc = scan::eventProcField(Line);
    if (Proc && *Proc < NumProcs)
      ++S.Slots[*Proc];
    return true;
  });
}

/// Pass B: parses one shard's event lines against the frozen \p Tables
/// and writes each accepted event at its processor's next slot in
/// \p Cols, up to \p Limit (the next shard's first slot).  Limits that
/// depend on global state (event count, allocation cap) were proven
/// untrippable before pass B started; the per-line length limit is
/// still enforced here and is fatal, exactly as in the sequential
/// parser.
void parseShard(std::string_view Text, Shard &S,
                const ParseOptions &Options,
                const scan::EventTables &Tables,
                const std::vector<Trace::StreamColumns> &Cols,
                const std::vector<uint64_t> &Limit) {
  ParseOptions Local = Options;
  Local.Report = Options.Report ? &S.Report : nullptr;
  const ParseLimits &Limits = Options.Limits;
  size_t LineNo = S.FirstLineNo - 1;
  uint64_t Records = 0; // flushed to S.Report after the walk
  S.Next = S.Slots;

  forEachSegment(Text, S, [&](size_t Begin, size_t End) {
    std::string_view RawLine = Text.substr(Begin, End - Begin);
    size_t LineOffset = Begin;
    ++LineNo;
    if (RawLine.size() > Limits.MaxLineBytes) {
      S.Err = makeParseError(ErrorCode::LimitExceeded, LineNo, LineOffset,
                             "trace line %zu: line exceeds the length limit",
                             LineNo)
                  .toParseError();
      return false;
    }
    std::string_view Line = scan::skipLeadingSpace(RawLine);
    if (Line.empty() || Line.front() == '#')
      return true;
    ++Records;
    Event E;
    Error RecordErr =
        scan::parseEventRecord(Line, Tables, LineNo, LineOffset, E);
    if (RecordErr) {
      ParseError PE = RecordErr.toParseError();
      if (PE.Code != ErrorCode::MissingSection && Local.dropRecord(PE))
        return true;
      S.Err = std::move(PE);
      return false;
    }
    uint64_t &At = S.Next[E.Proc];
    if (At == Limit[E.Proc]) {
      // Pass A counts every line that could yield an event for E.Proc,
      // so this cannot happen; the guard keeps writes in bounds anyway.
      S.Overflow = true;
      return false;
    }
    const Trace::StreamColumns &C = Cols[E.Proc];
    C.Times[At] = E.Time;
    C.Kinds[At] = E.Kind;
    C.Ids[At] = E.Id;
    C.Bytes[At] = E.Bytes;
    ++At;
    return true;
  });
  if (Local.Report)
    Local.Report->TotalRecords += Records;
}

/// The shared engine: parses the prologue, asks \p ShardCount(bytes of
/// the event section, processor count) how many shards to cut, and
/// parses the event section in that many shards (1 = sequentially) on
/// up to \p Threads threads.
template <typename ShardCountFn>
Expected<Trace> parseInShards(std::string_view Text,
                              const ParseOptions &Options,
                              ShardCountFn ShardCount, unsigned Threads) {
  // Phase 1: the header prologue is inherently sequential (each
  // declaration changes the tables the next line validates against).
  detail::TextTraceParser Parser(Text, Options);
  if (auto Err = Parser.parsePrologue())
    return Err;
  scan::EventTables Tables = Parser.tables();
  size_t EvStart = Parser.position();
  size_t Remain = Text.size() - EvStart;
  unsigned NumShards = 1;
  if (!Parser.atEnd() && Tables.SawProcs)
    NumShards = ShardCount(Remain, Tables.NumProcs);
  if (NumShards <= 1) {
    // Nothing shardable (or not worth sharding): finish sequentially.
    // !SawProcs means the next line fails with MissingSection; let the
    // sequential parser produce that error verbatim.
    if (auto Err = Parser.parseAll())
      return Err;
    return Parser.take();
  }

  // Phase 2: shard [EvStart, end) at newline boundaries.
  LIMA_STAGE("ingest");
  const unsigned NumProcs = Tables.NumProcs;
  std::vector<Shard> Shards;
  {
    LIMA_SPAN("ingest.scan");
    size_t ChunkBytes = Remain / NumShards;
    size_t Begin = EvStart;
    for (unsigned I = 0; I != NumShards && Begin <= Text.size(); ++I) {
      Shard S;
      S.Begin = Begin;
      if (I + 1 == NumShards) {
        S.End = Text.size();
      } else {
        size_t Target = std::min(EvStart + (I + 1) * ChunkBytes,
                                 Text.size());
        Target = std::max(Target, Begin);
        const void *Nl = std::memchr(Text.data() + Target, '\n',
                                     Text.size() - Target);
        S.End = Nl ? static_cast<size_t>(static_cast<const char *>(Nl) -
                                         Text.data()) +
                         1
                   : Text.size();
      }
      Begin = S.End;
      Shards.push_back(std::move(S));
    }
    Shards.back().End = Text.size();
    Shards.back().Last = true;

    // Pass A: count lines, look for stray directives, count event lines
    // per processor.
    forEachClaimed(Shards.size(), Threads,
                   [&](size_t I) { scanShard(Text, Shards[I], NumProcs); });
  }

  uint64_t RemainLines = 0;
  bool SawDirective = false;
  for (const Shard &S : Shards) {
    RemainLines += S.Lines;
    SawDirective |= S.SawDirective;
  }

  // Sequential fallbacks: a directive mid-events mutates the tables
  // later events validate against, and a limit that could trip
  // mid-section fails on a line that depends on global event/byte
  // totals.  Both are position-dependent in a way shards cannot see,
  // so replay them through the sequential parser (bit-identical by
  // construction).  RemainLines over-approximates remaining events, so
  // passing these checks proves no shard can trip either limit.
  const ParseLimits &Limits = Options.Limits;
  if (SawDirective ||
      Parser.totalEvents() + RemainLines > Limits.MaxEvents ||
      Parser.allocBytes() + RemainLines * sizeof(Event) >
          Limits.MaxAllocBytes) {
    LIMA_METRIC_COUNT("lima.ingest.fallback_total", 1);
    if (auto Err = Parser.parseAll())
      return Err;
    return Parser.take();
  }

  // Phase 3: place.  Within one processor, shards are in file order, so
  // a prefix sum over the shards' counts gives each shard its
  // destination range; the stream is sized once to hold them all.
  Trace &T = Parser.trace();
  std::vector<uint64_t> Base(NumProcs), Total(NumProcs);
  for (unsigned P = 0; P != NumProcs; ++P)
    Base[P] = Total[P] = T.events(P).size();
  for (Shard &S : Shards) {
    for (unsigned P = 0; P != NumProcs; ++P) {
      uint64_t Count = S.Slots[P];
      S.Slots[P] = Total[P];
      Total[P] += Count;
    }
  }
  std::vector<Trace::StreamColumns> Cols(NumProcs);
  for (unsigned P = 0; P != NumProcs; ++P) {
    T.resizeStream(P, Total[P]);
    Cols[P] = T.streamColumns(P);
  }

  // Phase 4: parse shards concurrently, each writing its events into
  // its own ranges of the streams.
  {
    LIMA_SPAN("ingest.parse");
    size_t NextLine = Parser.nextLineNumber();
    for (Shard &S : Shards) {
      S.FirstLineNo = NextLine;
      NextLine += S.Lines;
    }
    forEachClaimed(Shards.size(), Threads, [&](size_t I) {
      const std::vector<uint64_t> &Limit =
          I + 1 == Shards.size() ? Total : Shards[I + 1].Slots;
      parseShard(Text, Shards[I], Options, Tables, Cols, Limit);
    });
  }
  if (std::any_of(Shards.begin(), Shards.end(),
                  [](const Shard &S) { return S.Overflow; })) {
    LIMA_METRIC_COUNT("lima.ingest.fallback_total", 1);
    for (unsigned P = 0; P != NumProcs; ++P)
      T.truncateStream(P, Base[P]);
    if (auto Err = Parser.parseAll())
      return Err;
    return Parser.take();
  }

  // Phase 5: merge in shard order.  The first erroring shard (lowest
  // byte offset) wins; its report — and those of the shards before it —
  // are exactly what the sequential parser would have accumulated up to
  // and including the failing line.
  LIMA_SPAN("ingest.merge");
  LIMA_METRIC_COUNT("lima.ingest.shards", Shards.size());
  for (Shard &S : Shards) {
    if (Options.Report)
      Options.Report->merge(S.Report);
    if (S.Err)
      return Error::fromParse(std::move(*S.Err));
  }

  // Slide out the gaps left by counted lines that yielded no event
  // (lenient drops): per processor, move each shard's written range
  // down in shard order.
  std::vector<uint64_t> Cursor = Base;
  for (const Shard &S : Shards) {
    for (unsigned P = 0; P != NumProcs; ++P) {
      const uint64_t Dest = S.Slots[P];
      const uint64_t Written = S.Next[P] - Dest;
      uint64_t &At = Cursor[P];
      if (Written != 0 && At != Dest)
        Cols[P].move(Dest, At, Written);
      At += Written;
    }
  }
  uint64_t MergedEvents = 0;
  for (unsigned P = 0; P != NumProcs; ++P) {
    if (Cursor[P] != Total[P])
      T.truncateStream(P, Cursor[P]);
    MergedEvents += Cursor[P] - Base[P];
  }
  Parser.noteShardedSection(RemainLines, MergedEvents,
                            MergedEvents * sizeof(Event));
  return Parser.take();
}

} // namespace

Expected<Trace> detail::parseTraceTextSharded(std::string_view Text,
                                              const ParseOptions &Options,
                                              unsigned Shards) {
  return parseInShards(
      Text, Options, [Shards](size_t, unsigned) { return Shards; }, Shards);
}

Expected<Trace> trace::parseTraceTextParallel(std::string_view Text,
                                              const ParseOptions &Options,
                                              unsigned Threads) {
  Threads = resolveThreadCount(Threads);
  auto ShardCount = [Threads](size_t Bytes, unsigned NumProcs) -> unsigned {
    if (Threads <= 1 || Bytes < MinParallelBytes)
      return 1;
    // Every shard holds two per-processor tables; cap the shard count
    // so those tables never outweigh the text they parse (a huge
    // 'procs' over a short event section would otherwise cost the shard
    // count times a processor table).
    size_t Cap = Bytes / (size_t(NumProcs) * 2 * sizeof(uint64_t));
    return static_cast<unsigned>(
        std::min<size_t>(size_t(Threads) * ShardsPerThread, Cap));
  };
  return parseInShards(Text, Options, ShardCount, Threads);
}

Expected<Trace> trace::loadTraceParallel(const std::string &Path,
                                         const ParseOptions &Options,
                                         unsigned Threads) {
  auto FileOrErr = MappedFile::open(Path);
  if (auto Err = FileOrErr.takeError())
    return Err;
  return parseTraceTextParallel(FileOrErr->view(), Options, Threads);
}
