// Machine context recorded with every run (never used to filter runs): CPU
// steal share and load average (read-only from /proc), processor count, the
// last-level cache size, and a same-run STREAM-triad bandwidth reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

/// Aggregate `cpu` line of /proc/stat (jiffies); zeros when unreadable.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();
/// Share of CPU time stolen by the hypervisor between two samples.
double steal_share(const CpuTimes& a, const CpuTimes& b);
/// 1-minute load average; -1 when unreadable.
double load_average();
/// Online processors.
int processor_count();
/// Last-level cache size in bytes (largest cache level cpu0 reports).
std::size_t llc_bytes();

struct StreamResult {
  double gbs = 0.0;            ///< median triad GB/s over the passes
  std::size_t array_bytes = 0;
  int threads = 0;
};
/// STREAM triad a = b + q c with `threads` threads over three arrays of
/// `array_bytes` each (STREAM's 24 bytes per element).
StreamResult stream_triad(std::size_t array_bytes, int threads, int passes);

}  // namespace perfbench
