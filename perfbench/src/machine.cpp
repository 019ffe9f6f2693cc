#include "machine.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace perfbench {

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTimes t;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest fields are already included in user/nice.
  std::uint64_t v[8] = {};
  for (int i = 0; i < 8 && (in >> v[i]); ++i) {
  }
  for (std::uint64_t e : v) t.total += e;
  t.steal = v[7];
  return t;
}

double steal_share(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double v = -1.0;
  if (!(in >> v)) return -1.0;
  return v;
}

int processor_count() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::size_t llc_bytes() {
  std::size_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(idx) + "/size");
    std::string s;
    if (!(in >> s) || s.empty()) continue;
    std::size_t mult = 1;
    const char unit = s.back();
    if (unit == 'K') mult = std::size_t{1} << 10;
    if (unit == 'M') mult = std::size_t{1} << 20;
    if (unit == 'G') mult = std::size_t{1} << 30;
    best = std::max(best, static_cast<std::size_t>(std::stoull(s)) * mult);
  }
  if (best == 0) {
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 > 0) best = static_cast<std::size_t>(l3);
  }
  return best;
}

StreamResult stream_triad(std::size_t array_bytes, int threads, int passes) {
  const std::size_t n = array_bytes / sizeof(double);
  // Uninitialised storage: each thread first-touches its own block.
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const double q = 3.0;
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      const std::size_t lo = n * static_cast<std::size_t>(t) /
                             static_cast<std::size_t>(threads);
      const std::size_t hi = n * static_cast<std::size_t>(t + 1) /
                             static_cast<std::size_t>(threads);
      pool.emplace_back([&body, lo, hi] { body(lo, hi); });
    }
    for (std::thread& th : pool) th.join();
  };
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  std::vector<double> gbs;
  for (int p = 0; p < passes; ++p) {
    const auto t0 = std::chrono::steady_clock::now();
    parallel([&](std::size_t lo, std::size_t hi) {
      double* __restrict ap = a.get();
      const double* __restrict bp = b.get();
      const double* __restrict cp = c.get();
      for (std::size_t i = lo; i < hi; ++i) ap[i] = bp[i] + q * cp[i];
    });
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    gbs.push_back(24.0 * static_cast<double>(n) / s * 1e-9);
  }
  StreamResult r;
  r.gbs = median(gbs);
  r.array_bytes = n * sizeof(double);
  r.threads = threads;
  // Keep the arrays observable so the passes cannot be elided.
  volatile double sink = a[n / 2];
  (void)sink;
  return r;
}

}  // namespace perfbench
