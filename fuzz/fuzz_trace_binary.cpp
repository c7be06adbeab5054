//===- fuzz/fuzz_trace_binary.cpp - LIMB binary parser fuzz target --------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "FuzzOptions.h"
#include "ReduceCheck.h"
#include "trace/BinaryIO.h"
#include <cstddef>
#include <cstdint>
#include <string_view>

using namespace lima;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::string_view Bytes(reinterpret_cast<const char *>(Data), Size);

  auto Strict = trace::parseTraceBinary(Bytes, fuzz::strictOptions());
  if (Strict)
    fuzz::checkReductionAcrossThreads(*Strict);
  else
    Strict.takeError().consume();

  ParseReport Report;
  auto Lenient = trace::parseTraceBinary(Bytes, fuzz::lenientOptions(Report));
  if (Lenient)
    fuzz::checkReductionAcrossThreads(*Lenient);
  else
    Lenient.takeError().consume();
  return 0;
}
