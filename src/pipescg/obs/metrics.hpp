// Unified metrics registry: one typed, queryable surface over every signal
// the runtime produces.
//
// Before this layer the repo's quantitative story lived in four ad-hoc
// formats: obs::Profiler::Counters (per-rank struct), per-kind
// LatencyHistograms, fault/recovery counts scattered through SolveStats and
// JSON reports, and the BENCH_*.json bench summaries.  The registry gives
// them one schema -- counters, gauges, and histograms carrying label sets
// (method, s, ranks, rank, span_kind, kernel) -- and two deterministic
// exporters:
//
//   * Prometheus text exposition (node_exporter textfile-collector
//     compatible, no timestamps): families sorted by name, series sorted by
//     rendered label set, values rendered shortest-round-trip
//     (json::number_to_string).  Two identical solves therefore produce
//     byte-identical expositions for every metric that is not wall-clock
//     derived; by naming convention all wall-clock-derived metrics carry a
//     `_seconds` or `_per_second` suffix, so `grep -v` on those two
//     suffixes yields the deterministic subset (the CI byte-identity gate).
//
//   * A key-stable JSON snapshot (same ordering contract) folded into
//     obs::solve_report, so one report file carries stats, profile, overlap,
//     drift, AND the metric surface a dashboard would scrape.
//
// Thread-safety contract: cell handles returned by the registry are stable
// for the registry's lifetime; counter and gauge mutators are lock-free
// atomics and histograms take a per-series mutex, so rank threads record
// concurrently while the MetricsSampler renders snapshots from its own
// thread -- the design TSan validates in tests/metrics_test.cpp.
// Registration (name -> family lookup) takes a mutex and belongs on the
// setup path, not in kernels.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pipescg/obs/json.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/obs/slot.hpp"

namespace pipescg::krylov {
struct SolveStats;
}

namespace pipescg::obs::metrics {

/// Label set attached to one series.  Keys are sorted at registration, so
/// two call sites naming the same labels in different orders address the
/// same series and render identically.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotone event/quantity count.  `double` payload so byte totals and
/// fractional modeled quantities fit; additions are CAS loops, reads are
/// single atomic loads.
class Counter {
 public:
  void add(double delta);
  void inc() { add(1.0); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time value (last write wins).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed distribution: an obs::LatencyHistogram behind a
/// per-series mutex, so merges (setup and service threads) and sampling
/// (the MetricsSampler thread) can overlap.  Exported as a Prometheus
/// histogram: cumulative `_bucket{le=...}` series for non-empty buckets,
/// plus `_sum` and `_count`.
class Histogram {
 public:
  void observe(double seconds) {
    const std::lock_guard<std::mutex> lock(mu_);
    hist_.add(seconds);
  }
  /// Bulk import of an already-merged profiler histogram.
  void merge_from(const LatencyHistogram& h) {
    const std::lock_guard<std::mutex> lock(mu_);
    hist_.merge(h);
  }
  /// Consistent copy of the distribution.
  LatencyHistogram snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return hist_;
  }

 private:
  mutable std::mutex mu_;
  LatencyHistogram hist_;
};

/// The registry: named metric families, each holding labeled series.  A
/// family's type is fixed by its first registration; re-registering the same
/// (name, labels) returns the existing cell, and registering a name with a
/// conflicting type throws.
class Registry {
 public:
  // Out-of-line: Family/Series are complete in metrics.cpp only.
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Handles are valid for the registry's lifetime.
  Counter& counter(const std::string& name, const std::string& help,
                   Labels labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               Labels labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       Labels labels = {});

  /// Prometheus text exposition, version 0.0.4.  Deterministic: families
  /// sorted by name, series sorted by rendered label set, no timestamps.
  std::string prometheus() const;

  /// Key-stable JSON snapshot:
  ///   {"<family>": {"type", "help", "series":
  ///       [{"labels": {...}, "value": ...} |
  ///        {"labels": {...}, "count", "sum_seconds", "p50/p95/p99"...]}}
  /// with the same family/series ordering as the exposition.
  json::Value to_json() const;

  /// Write prometheus() to `path` atomically (tmp file + rename), the
  /// textfile-collector handshake: a scraper never reads a torn file.
  void write_textfile(const std::string& path) const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Series;
  struct Family;

  Series& series(const std::string& name, const std::string& help, Type type,
                 Labels&& labels);

  mutable std::mutex mu_;  // guards the maps, not the cells
  std::map<std::string, std::unique_ptr<Family>> families_;
};

/// Periodic snapshot thread: every `period_ms` it renders the registry and
/// writes the exposition to `path` (atomic replace), so a long solve is
/// observable while running -- point a node_exporter textfile collector (or
/// `watch cat`) at the file.  start()/stop() are idempotent; the destructor
/// stops.  Reads only atomic cells and mutex-guarded histogram snapshots,
/// so it is data-race-free against recording rank threads (TSan-checked).
class MetricsSampler {
 public:
  MetricsSampler(const Registry& registry, std::string path, double period_ms);
  ~MetricsSampler();
  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  void start();
  void stop();
  /// Render and write one snapshot NOW, regardless of the period -- the
  /// service layer calls this when a job terminates early (deadline expiry)
  /// so the terminal state is never lost to the sampling window.  Safe from
  /// any thread; I/O failures degrade to a missed sample.
  void flush();
  /// Snapshots written so far (final stop() flush included).
  std::size_t samples() const { return samples_.load(std::memory_order_relaxed); }

 private:
  void run();

  const Registry& registry_;
  std::string path_;
  double period_ms_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool running_ = false;
  std::atomic<std::size_t> samples_{0};
};

// --- bridges from the existing observability surfaces -----------------------

/// SolveStats as registry metrics (iterations, convergence flags, residual
/// norms, recoveries, final s), all under `base` labels.
void register_stats(Registry& registry, const krylov::SolveStats& stats,
                    const Labels& base = {});

/// A measured SolveProfile as registry metrics: per-rank kernel counters
/// (label rank="r"), per-span-kind measured seconds/span counts, cross-rank
/// latency histograms, the counters_uniform cross-check gauge, and measured
/// kernel throughput gauges (bytes moved from operator shape, see
/// Profiler::Counters::spmv_bytes, divided by measured spmv_local seconds).
void register_profile(Registry& registry, const SolveProfile& profile,
                      const Labels& base = {});

/// Fault-harness state as registry metrics: injected faults, recoveries,
/// and comm-watchdog trips (par::comm_watchdog_trips()).  The same numbers
/// the JSON reports carry -- tests assert the two surfaces agree.
void register_fault(Registry& registry, std::size_t injected_faults,
                    std::size_t recoveries, std::size_t watchdog_trips,
                    const Labels& base = {});

/// One service::Session's observable state, flattened to plain fields so obs
/// does not depend on the service layer (the session fills this in
/// Session-land; bench_service and the metrics bridge consume it here).
/// The histogram pointers may be null; when set they must outlive the
/// register_session call (merge_from copies the buckets).
struct SessionSnapshot {
  int ranks = 0;
  std::size_t solves = 0;        ///< jobs completed (single + batched columns)
  std::size_t team_runs = 0;     ///< bodies executed on the persistent team
  double setup_seconds = 0.0;    ///< wall cost of the one cold setup
  // Setup-build counters (service::SetupCounters): frozen after the session
  // constructor on the cache contract the tests pin down.
  std::size_t partition_builds = 0;
  std::size_t dist_builds = 0;
  std::size_t mpk_builds = 0;
  std::size_t pc_builds = 0;
  std::size_t team_spawns = 0;
  std::size_t warm_hits = 0;     ///< solves served entirely from cache
  std::size_t expired = 0;       ///< jobs dropped past their deadline
  const LatencyHistogram* solve_latency = nullptr;  ///< per-solve wall clock
  const LatencyHistogram* queue_latency = nullptr;  ///< admission wait
};

/// A SessionSnapshot as registry metrics: setup-build counters (label
/// kind="partition|dist|mpk|pc|team"), warm-hit/solve/team-run totals, the
/// setup cost gauge, and the solve-latency / queue-wait histograms.  All
/// wall-clock series carry the `_seconds` suffix per the determinism
/// convention above.
void register_session(Registry& registry, const SessionSnapshot& snapshot,
                      const Labels& base = {});

// --- live solve monitoring --------------------------------------------------

/// Mid-solve gauges fed from every driver's checkpoint hook (obs::checkpoint
/// forwards here): current iteration, residual norm, block size s, recovery
/// count and -- when the residual-gap monitor is on -- the latest
/// predicted-vs-true gap (`pipescg_residual_gap`), updated atomically so the
/// MetricsSampler exposes a running solve's trajectory, not just its
/// post-mortem.  Install on the rank-0 thread
/// (same discipline as ConvergenceTelemetry: the scalar recurrences are
/// replicated, so one rank suffices and the gauges stay single-writer).
class LiveSolve : public ThreadSlot<LiveSolve> {
 public:
  LiveSolve(Registry& registry, const Labels& base = {});

  /// `gap` < 0 = no gap check resolved at this checkpoint (the gauge keeps
  /// its previous value; -1 initially = monitor silent so far).
  void checkpoint(std::uint64_t iteration, double rnorm, int s,
                  std::uint64_t recoveries, double gap = -1.0);

 private:
  Gauge& iteration_;
  Gauge& rnorm_;
  Gauge& s_;
  Gauge& recoveries_;
  Gauge& gap_;
  Counter& checkpoints_;
};

}  // namespace pipescg::obs::metrics
