// Fault-specification grammar for the injection harness (see DESIGN.md
// section 9, "Fault model and recovery").
//
// A fault spec is a ';'-separated list of faults; each fault is a
// ':'-separated list of key=value fields:
//
//   rank=2:kind=slow:factor=8          rank 2 computes 8x slower
//   kind=sdc:target=spmv:iter=40:bits=1   flip 1 seeded bit in the output of
//                                         rank 0's 40th SPMV
//   kind=sdc:target=spmv:iter=40:bit=61   flip exactly bit 61 (deterministic
//                                         high-exponent corruption)
//   kind=stall:target=allreduce:iter=30:ms=500   delay rank 0's 30th
//                                         allreduce contribution by 500 ms
//   kind=die:rank=1:iter=25            rank 1 dies at its 25th SPMV
//
// Fields:
//   kind    slow | sdc | stall | die            (required)
//   rank    rank the fault applies to           (default 0)
//   target  spmv | pc | allreduce | halo        (default: spmv, except stall
//                                                which defaults to allreduce)
//   iter    0-based index of the targeted event on that rank (default 0);
//           events are counted per target kind, so `target=spmv:iter=40`
//           means the rank's 41st SPMV since the injector was installed
//   bits    sdc: number of seeded random bit flips (default 1)
//   bit     sdc: explicit bit index in [0, 63]; overrides `bits` (use a high
//           exponent bit, e.g. 61, for a corruption that is guaranteed to be
//           numerically loud)
//   factor  slow: compute slowdown multiplier (default 2)
//   ms      stall: injected delay in milliseconds (default 100)
//   seed    sdc: RNG stream seed for entry/bit selection (default 0x5eed)
//
// Parsing is strict: unknown keys, unknown kinds, and malformed numbers all
// raise pipescg::Error, so a typo in --fault-spec fails fast instead of
// silently injecting nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pipescg::fault {

enum class FaultKind : std::uint8_t { kSlow, kSdc, kStall, kDie };
enum class FaultTarget : std::uint8_t { kSpmv, kPc, kAllreduce, kHalo };

const char* to_string(FaultKind kind);
const char* to_string(FaultTarget target);

struct FaultSpec {
  FaultKind kind = FaultKind::kSdc;
  int rank = 0;
  FaultTarget target = FaultTarget::kSpmv;
  std::uint64_t iter = 0;       // 0-based targeted event index on `rank`
  int bits = 1;                 // sdc: seeded random bit flips
  int bit = -1;                 // sdc: explicit bit index (overrides bits)
  double factor = 2.0;          // slow: compute slowdown multiplier
  double ms = 100.0;            // stall: injected delay
  std::uint64_t seed = 0x5eed;  // sdc: rng stream seed

  /// True when this fault applies to events of `target` on `rank`.
  bool matches(int r, FaultTarget t) const {
    return rank == r && target == t;
  }
};

/// Parse one fault (a ':'-separated field list).
FaultSpec parse_fault_spec(const std::string& text);

/// Parse a ';'-separated list of faults.  Empty input => empty list.
std::vector<FaultSpec> parse_fault_specs(const std::string& text);

}  // namespace pipescg::fault
