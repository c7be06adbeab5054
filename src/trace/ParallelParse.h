//===- trace/ParallelParse.h - Sharded LIMATRACE text parsing ---*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel ingestion of the LIMATRACE text format: the header prologue
/// is parsed sequentially, then the event section is sharded at newline
/// boundaries and parsed concurrently on the shared thread pool.
///
/// The contract is bit-identical equivalence with parseTraceText at
/// every thread count:
///
///  - the produced Trace is identical (each shard writes a processor's
///    events into that processor's stream at the shard's place in file
///    order, so per-processor event order is preserved);
///  - in strict mode the reported error is the sequentially-first one
///    (shards are scanned in byte order; the lowest-offset failure
///    wins) with the same code, line number, offset and message;
///  - in lenient mode the ParseReport (totals, per-code drop counts,
///    the first 16 samples) is identical, because shard-local reports
///    merge in shard order.
///
/// Inputs that sharding cannot reproduce exactly — declarations after
/// the first event line, or limits that could trip mid-section — are
/// detected in a cheap pre-scan and fall back to the sequential parser,
/// so equivalence holds unconditionally (see DESIGN.md, "Ingestion fast
/// path" for the determinism argument).
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_PARALLELPARSE_H
#define LIMA_TRACE_PARALLELPARSE_H

#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Trace.h"
#include <string>
#include <string_view>

namespace lima {
namespace trace {

/// parseTraceText semantics on \p Threads threads (0 = all hardware
/// threads, 1 = the sequential parser on the calling thread).  Small
/// inputs run sequentially regardless.
Expected<Trace> parseTraceTextParallel(std::string_view Text,
                                       const ParseOptions &Options = {},
                                       unsigned Threads = 0);

/// Maps \p Path (zero-copy, see support/MappedFile.h) and parses it
/// with parseTraceTextParallel.
Expected<Trace> loadTraceParallel(const std::string &Path,
                                  const ParseOptions &Options = {},
                                  unsigned Threads = 0);

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_PARALLELPARSE_H
