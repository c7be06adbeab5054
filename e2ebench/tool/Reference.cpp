//===- e2ebench/tool/Reference.cpp - machine-speed reference kernel -------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// lima_e2e_ref: a fixed amount of trace-like work that shares no code
// with LIMA.  On one thread it formats 4 MiB of event lines from a fixed
// xorshift stream, 64 KiB at a time, and parses every number in them
// back.  It prints the checksum, the same on every run and machine.
//
// e2ebench/run.py runs it right after each timed lima_analyze process
// and divides the run's walls by its median wall: on a shared host
// the speed of a virtual CPU drifts by a quarter within minutes, and the
// two walls drift together.  Being a separate binary without the
// product's libraries, no change to LIMA can move it.
//
//===----------------------------------------------------------------------===//

#include <cstdint>
#include <cstdio>

namespace {

uint64_t kernel() {
  // One small buffer, filled and parsed over and over: a larger one
  // would time page faults, whose cost on a virtual machine depends on
  // what the previous process left in memory, not on the CPU.
  char Text[64 << 10];
  char *const End = Text + sizeof(Text) - 64;
  uint64_t X = 88172645463325252ULL, Sum = 0;
  for (int Round = 0; Round != 64; ++Round) {
    char *P = Text;
    while (P < End) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      P += std::snprintf(P, 64, "ev %u %u.%09u %u\n", unsigned(X % 64),
                         unsigned(X >> 40) % 1000,
                         unsigned(X >> 20) % 1000000000u,
                         unsigned(X >> 50) % 97);
    }
    uint64_t Cur = 0;
    for (const char *C = Text; C != P; ++C) {
      if (*C >= '0' && *C <= '9') {
        Cur = Cur * 10 + uint64_t(*C - '0');
      } else {
        Sum += Cur;
        Cur = 0;
      }
    }
  }
  return Sum;
}

} // namespace

int main() {
  std::printf("%llu\n", static_cast<unsigned long long>(kernel()));
  return 0;
}
