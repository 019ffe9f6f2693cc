// One span recorder per rank: the single recording primitive of the SPMD
// runtime and of the request traces built on it.
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
// Every span -- kernel spans, named scopes (rank_solve, solve, ...), the
// per-checkpoint outer_iteration spans and recovery marks -- is one
// fixed-size obs::Span in the recorder's obs::Ring, timed against one epoch
// shared by every track of a SolveProfile, with an id minted by its track
// and the innermost open scope as parent.  Kernel spans also feed per-kind
// histograms, so totals never rescan the ring.
//
// Usage: a SolveProfile owns one Profiler per rank plus a service track.
// Each rank thread installs its Profiler (Profiler::Install, done by
// SpmdEngine's constructor when a profiler is passed), and the runtime's
// instrumentation points (par::Comm, sparse::DistCsr, SpmdEngine,
// obs::checkpoint, fault::RecoveryManager) record into Profiler::current()
// -- a thread-local pointer (obs::ThreadSlot), so recording needs no
// synchronization and a disabled run costs one thread-local null check per
// hook.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "pipescg/obs/ring.hpp"
#include "pipescg/obs/slot.hpp"

namespace pipescg::obs {

/// What a measured kernel span covers.  Kept deliberately close to the
/// runtime's actual instrumentation points rather than abstract phases.
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
  kCount_  // sentinel; also the kind of a named (non-kernel) span
};

constexpr std::size_t kSpanKindCount = static_cast<std::size_t>(SpanKind::kCount_);

/// Stable snake_case name (used as the span name, the Chrome-trace event
/// name and the JSON report key).
inline const char* to_string(SpanKind kind) {
  static constexpr const char* kNames[kSpanKindCount] = {
      "spmv_local",     "halo_expose",  "halo_peer_read",
      "halo_close",     "pc_apply",     "dot_local",
      "allreduce_post", "allreduce_wait_blocking",
      "allreduce_wait_nonblocking"};
  const auto i = static_cast<std::size_t>(kind);
  return i < kSpanKindCount ? kNames[i] : "?";
}

namespace tracing {

/// The propagated identity of one request: which trace spans belong to and
/// the span they nest under at the current layer.  Copied (not referenced)
/// across threads -- each layer re-parents by value.
struct TraceContext {
  std::uint64_t trace_id = 0;        ///< 0 = no trace (untraced request)
  std::uint64_t parent_span_id = 0;  ///< 0 = root of the trace
  bool valid() const { return trace_id != 0; }
};

}  // namespace tracing

/// A numeric span annotation; `key` is a string literal.
struct SpanArg {
  const char* key;
  double value;
};

/// One recorded span.  The name and arg keys are static strings, so a span
/// is a fixed-size record and recording one never allocates.
struct Span {
  static constexpr std::size_t kMaxArgs = 3;

  Span() = default;
  Span(const char* name, double start, double end, std::uint64_t span_id,
       std::uint64_t parent_span_id, SpanKind kind = SpanKind::kCount_)
      : name(name), start(start), end(end), span_id(span_id),
        parent_span_id(parent_span_id), kind(kind) {}

  const char* name = nullptr;        // to_string(kind) for kernel spans
  double start = 0.0;                // seconds since the recording epoch
  double end = 0.0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  // 0 = root of the trace
  SpanKind kind = SpanKind::kCount_;
  std::array<SpanArg, kMaxArgs> args{};  // unused slots have a null key

  bool is_kernel() const { return kind != SpanKind::kCount_; }
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

  /// Span capacity of an offline profile: keep every span.
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();
  /// Span capacity per track of a Session request.
  static constexpr std::size_t kDefaultCapacity = 8192;

  /// `rank` is the track index: it scopes minted span ids, which are
  /// (rank + 1) * 2^32 + sequence, so ids from different tracks never
  /// collide and stay below 2^53 (exact in a JSON double).  Top-level spans
  /// nest under `parent`.
  Profiler(int rank, Clock::time_point epoch,
           std::size_t capacity = kUnbounded, std::uint64_t parent = 0)
      : rank_(rank), epoch_(epoch), ring_(capacity), parents_{parent} {}

  /// Seconds since the recording epoch (shared by every track of a
  /// SolveProfile, so spans from different ranks share a timebase).
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Next span id of this track.
  std::uint64_t mint() {
    return (static_cast<std::uint64_t>(rank_) + 1) * (std::uint64_t{1} << 32) +
           ++next_seq_;
  }

  /// Innermost open named scope (or the track's top-level parent).
  std::uint64_t current_parent() const { return parents_.back(); }

  /// Make top-level spans nest under `parent` (a span of another track:
  /// a request's rank tracks nest under its service-track root).
  void nest_under(std::uint64_t parent) { parents_.front() = parent; }

  /// Push a finished span as it is (id and parent already set); a kernel
  /// span also feeds its kind's histogram.
  void push(const Span& span) {
    if (span.is_kernel())
      histograms_[static_cast<std::size_t>(span.kind)].add(span.end -
                                                           span.start);
    ring_.push(span);
  }

  /// Record a kernel span under the innermost open scope.
  void record(SpanKind kind, double start, double end) {
    if (last_checkpoint_ < 0.0) last_checkpoint_ = start;
    histograms_[static_cast<std::size_t>(kind)].add(end - start);
    ring_.push(to_string(kind), start, end, mint(), current_parent(), kind);
  }

  /// Record a named span under the innermost open scope; returns its id.
  std::uint64_t record(const char* name, double start, double end,
                       std::initializer_list<SpanArg> args = {});

  /// Instantaneous annotation (zero-duration span): recovery marks.
  std::uint64_t mark(const char* name,
                     std::initializer_list<SpanArg> args = {});

  /// Called by obs::checkpoint at every outer iteration: records an
  /// `outer_iteration` span covering the time since the previous checkpoint
  /// (or since the innermost scope opened, or since the solve's first
  /// kernel span), with iteration and rnorm args.
  void checkpoint(std::uint64_t iteration, double rnorm);

  /// A solve starts on this track: its first `outer_iteration` span starts
  /// with its first kernel span, not at the recording epoch (thread start
  /// and engine setup) or at an earlier solve's last checkpoint.
  void begin_solve() { last_checkpoint_ = kNoCheckpoint; }

  /// Every span of `kind` recorded so far, as a latency distribution.
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

  /// The span ring: size(), dropped() (evicted in the order spans closed)
  /// and back(), the newest span.
  const Ring<Span>& ring() const { return ring_; }
  /// Retained spans in the order they closed.
  std::vector<Span> spans() const { return ring_.items(); }

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

 private:
  friend class SpanScope;

  /// Push a named span with id `id` under the innermost open scope.
  std::uint64_t push_named(const char* name, double start, double end,
                           std::uint64_t id, std::span<const SpanArg> args);

  int rank_;
  Clock::time_point epoch_;
  Ring<Span> ring_;
  std::vector<std::uint64_t> parents_;
  std::uint64_t next_seq_ = 0;
  // Where the next outer_iteration span starts; kNoCheckpoint until a
  // kernel span or a named scope anchors it.
  static constexpr double kNoCheckpoint = -1.0;
  double last_checkpoint_ = kNoCheckpoint;
  std::array<LatencyHistogram, kSpanKindCount> histograms_;
  LatencyHistogram halo_exchange_histogram_;
  Counters counters_;
};

/// RAII span into a (possibly null) recorder, measured from construction to
/// destruction; a null recorder makes it a no-op, so call sites need no
/// branch.  A kernel scope records one span of its kind.  A named scope
/// mints its id on opening and is the parent of every span its track
/// records until it closes; it may carry up to Span::kMaxArgs args.
class SpanScope {
 public:
  SpanScope(Profiler* p, SpanKind kind) : p_(p), kind_(kind) {
    if (p_ != nullptr) start_ = p_->now();
  }
  SpanScope(Profiler* p, const char* name)
      : SpanScope(p, name, p != nullptr ? p->now() : 0.0) {}
  /// A named scope opened at an explicit `start` (seconds since the epoch).
  SpanScope(Profiler* p, const char* name, double start);
  ~SpanScope() {
    if (p_ != nullptr) close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// The named scope's id (0 for a null recorder or a kernel scope).
  std::uint64_t span_id() const { return span_id_; }

  /// Annotate a named scope.
  void arg(const char* key, double value);

 private:
  // Out of line, so an instrumented hot function carries one call and no
  // recording code.
  void close();

  Profiler* p_;
  SpanKind kind_ = SpanKind::kCount_;
  const char* name_ = nullptr;
  double start_ = 0.0;
  std::uint64_t span_id_ = 0;
  std::size_t nargs_ = 0;
  std::array<SpanArg, Span::kMaxArgs> args_{};
};

/// One recording: a Profiler per rank plus the service track, sharing one
/// epoch and, for a request, one TraceContext.  Built before par::Team::run
/// and read after it returns (rank threads only touch their own track, so
/// no synchronization is needed).
class SolveProfile {
 public:
  explicit SolveProfile(
      int ranks, std::size_t capacity = Profiler::kUnbounded,
      tracing::TraceContext context = {},
      Profiler::Clock::time_point epoch = Profiler::Clock::now());

  int ranks() const { return static_cast<int>(profilers_.size()); }
  Profiler& rank(int r) { return profilers_[static_cast<std::size_t>(r)]; }
  const Profiler& rank(int r) const {
    return profilers_[static_cast<std::size_t>(r)];
  }
  /// The service thread's track (queue wait, the request root).
  Profiler& service() { return service_; }
  const Profiler& service() const { return service_; }
  const tracing::TraceContext& context() const { return context_; }

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
  tracing::TraceContext context_;
  std::vector<Profiler> profilers_;
  Profiler service_;
};

}  // namespace pipescg::obs
