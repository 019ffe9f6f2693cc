// Measured per-rank profiling for the SPMD runtime.
//
// The analytic machine model (sim/) prices a *recorded* serial trace; this
// is the complementary instrument: low-overhead wall-clock measurement of
// what the real par::Team execution did, per rank, decomposed the way the
// pipelined-CG literature diagnoses overlap quality -- local SPMV compute,
// halo-exchange epochs, PC applies, dot local partials, allreduce posts,
// and (the key signal) time spent spinning in allreduce waits, split
// blocking vs non-blocking.  A non-blocking wait that measures near zero
// means the solver fully hid the reduction behind compute; growth of that
// bucket is an overlap regression.
//
// Usage: a SolveProfile owns one Profiler per rank with a shared epoch.
// Each rank thread installs its Profiler (Profiler::Install, done by
// SpmdEngine's constructor when a profiler is passed), and the runtime's
// instrumentation points (par::Comm, sparse::DistCsr, SpmdEngine) record
// into Profiler::current() -- a thread-local pointer (obs::ThreadSlot), so
// recording needs no synchronization and a disabled run costs one
// thread-local null check per hook.  Defining PIPESCG_DISABLE_PROFILING
// makes current() a constexpr nullptr and compiles every hook out entirely.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pipescg/obs/slot.hpp"

namespace pipescg::obs {

/// What a measured span covers.  Kept deliberately close to the runtime's
/// actual instrumentation points rather than abstract phases.
enum class SpanKind : std::uint8_t {
  kSpmvLocal,       // local CSR compute of a distributed SPMV (no comm)
  kHaloExpose,      // expose(): window publication + epoch-open barrier
  kHaloPeerRead,    // peer_read(): pulling one ghost run
  kHaloClose,       // close_epoch(): epoch-close barrier
  kPcApply,         // rank-local preconditioner application
  kDotLocal,        // local partial reduction of a dot batch
  kAllreducePost,   // posting an allreduce (copy + publish)
  kAllreduceWaitBlocking,     // spin inside a blocking allreduce
  kAllreduceWaitNonblocking,  // spin completing an MPI_Iallreduce-style wait:
                              // the overlap-quality signal
  kCount_  // sentinel
};

constexpr std::size_t kSpanKindCount = static_cast<std::size_t>(SpanKind::kCount_);

/// Stable snake_case name (used as the Chrome-trace event name and as the
/// JSON report key).
const char* to_string(SpanKind kind);

struct Span {
  SpanKind kind;
  double start;  // seconds since the profile epoch
  double end;
};

/// Log-bucketed latency histogram: bucket i holds durations in
/// [2^i, 2^(i+1)) nanoseconds, so 64 buckets cover sub-nanosecond spins up
/// to centuries with a single shift per add.  Quantiles interpolate
/// geometrically inside the bucket -- accurate to a factor of 2^(1/count)
/// which is plenty for p50/p95/p99 tail diagnosis, and mergeable across
/// ranks without storing individual samples.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void add(double seconds);
  void merge(const LatencyHistogram& other);

  std::size_t count() const { return count_; }
  double sum_seconds() const { return sum_; }
  double min_seconds() const { return count_ == 0 ? 0.0 : min_; }
  double max_seconds() const { return max_; }
  double mean_seconds() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// q in [0, 1]; returns 0 when empty.  quantile(0.5) is the p50.
  double quantile(double q) const;

  std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  /// Lower edge of bucket i in seconds (2^i ns).
  static double bucket_floor_seconds(std::size_t i);

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class Profiler : public ThreadSlot<Profiler> {
 public:
  using Clock = std::chrono::steady_clock;

  Profiler(int rank, Clock::time_point epoch) : rank_(rank), epoch_(epoch) {}

  int rank() const { return rank_; }

  /// The clock instant span times are relative to (shared by all ranks of a
  /// SolveProfile); tracing::RequestTrace::add_profile uses it to align
  /// profiler spans with request spans recorded against a different epoch.
  Clock::time_point epoch() const { return epoch_; }

  /// Seconds since the profile epoch (shared by all ranks of a
  /// SolveProfile, so spans from different ranks share a timebase).
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  void record(SpanKind kind, double start, double end) {
    spans_.push_back(Span{kind, start, end});
    histograms_[static_cast<std::size_t>(kind)].add(end - start);
  }

  /// Latency distribution of every span of `kind` recorded so far.
  const LatencyHistogram& histogram(SpanKind kind) const {
    return histograms_[static_cast<std::size_t>(kind)];
  }

  /// Whole-epoch latency of batched halo exchanges (expose + all peer reads
  /// + close), recorded by par::Comm::exchange as one composite sample --
  /// the per-phase spans above stay disjoint so kind totals never
  /// double-count.
  void record_halo_exchange(double seconds) {
    halo_exchange_histogram_.add(seconds);
  }
  const LatencyHistogram& halo_exchange_histogram() const {
    return halo_exchange_histogram_;
  }

  /// Engine-level kernel counters, mirroring sim::EventTrace::Counters so a
  /// measured SPMD run can be cross-checked against a recorded serial trace.
  ///
  /// The halo_* counters account for batched halo-exchange epochs
  /// (par::Comm::exchange): one epoch per distributed SPMV, or one per
  /// s-step *block* when the matrix-powers kernel is active -- comparing
  /// halo_epochs against spmvs is how communication avoidance is verified
  /// (see EXPERIMENTS.md, "Measuring communication avoidance").  They are
  /// per-rank quantities: boundary ranks pull fewer messages/doubles than
  /// interior ranks, so they are deliberately excluded from the
  /// SolveProfile::counters_uniform() cross-rank check.
  struct Counters {
    std::size_t spmvs = 0;
    std::size_t pc_applies = 0;
    std::size_t allreduces = 0;
    std::size_t iterations = 0;  // CG-equivalent iterations
    std::size_t mpk_blocks = 0;  // matrix-powers s-blocks executed
    std::size_t recoveries = 0;  // fault-recovery rollback-restarts
    std::size_t halo_epochs = 0;          // batched exchange epochs
    std::size_t halo_messages = 0;        // ghost runs pulled (per rank)
    std::size_t halo_volume_doubles = 0;  // ghost doubles pulled (per rank)
    std::size_t spmv_bytes = 0;  // bytes moved by local SPMV compute, from
                                 // operator shape (matrix structure + vector
                                 // traffic); rank-dependent like halo_*, so
                                 // also outside the uniformity contract.
                                 // Feeds the measured-throughput gauges
                                 // (metrics::register_profile).
  };
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Accumulated seconds and span count for one kind: a view of the kind's
  /// histogram, which adds the same durations in the same order a scan of
  /// spans() would.
  struct KindTotal {
    double seconds = 0.0;
    std::size_t count = 0;
  };
  KindTotal total(SpanKind kind) const {
    const LatencyHistogram& h = histogram(kind);
    return {h.sum_seconds(), h.count()};
  }

#if defined(PIPESCG_DISABLE_PROFILING)
  // Hides ThreadSlot::current(): every hook folds to a constant null.
  static constexpr Profiler* current() { return nullptr; }
#endif

 private:
  int rank_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::array<LatencyHistogram, kSpanKindCount> histograms_;
  LatencyHistogram halo_exchange_histogram_;
  Counters counters_;
};

/// RAII span capture into a (possibly null) profiler: measures from
/// construction to destruction.  The null check is the only cost when
/// profiling is off.
class SpanScope {
 public:
  SpanScope(Profiler* p, SpanKind kind) : p_(p), kind_(kind) {
    if (p_ != nullptr) start_ = p_->now();
  }
  ~SpanScope() {
    if (p_ != nullptr) p_->record(kind_, start_, p_->now());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Profiler* p_;
  SpanKind kind_;
  double start_ = 0.0;
};

/// One whole-solve measurement: a Profiler per rank sharing an epoch, built
/// before par::Team::run and harvested after it returns (rank threads only
/// touch their own profiler, so no synchronization is needed).
class SolveProfile {
 public:
  explicit SolveProfile(int ranks);

  int ranks() const { return static_cast<int>(profilers_.size()); }
  Profiler& rank(int r) { return profilers_[static_cast<std::size_t>(r)]; }
  const Profiler& rank(int r) const {
    return profilers_[static_cast<std::size_t>(r)];
  }

  /// min/median/max over ranks of the accumulated seconds of `kind`.
  struct Aggregate {
    double min = 0.0;
    double median = 0.0;
    double max = 0.0;
    std::size_t count = 0;  // total spans across ranks
  };
  Aggregate aggregate(SpanKind kind) const;

  /// Histogram of `kind` merged across all ranks (for cross-rank p50/p95/p99
  /// in reports).
  LatencyHistogram merged_histogram(SpanKind kind) const;
  LatencyHistogram merged_halo_exchange_histogram() const;

  /// True when every rank recorded identical kernel counters (they must,
  /// since SPMD ranks execute the same solver control flow).
  bool counters_uniform() const;

  /// One-line-per-kind human summary (for --profile console output).
  std::string summary() const;

 private:
  std::vector<Profiler> profilers_;
};

}  // namespace pipescg::obs
