// Request-scoped distributed tracing for the service layer.
//
// The per-solve Profiler (obs/profiler.hpp) answers "what did the kernels
// of ONE solve cost"; this layer answers the operator's question: "what
// happened to REQUEST 7042, end to end".  Every service::SolveContext mints
// a TraceContext (a process-unique trace_id plus the parent span under
// which its work nests), and that context propagates through every layer a
// request crosses:
//
//   AdmissionQueue enqueue  ->  queue_wait span on the service track
//   Session dispatch        ->  request/dispatch/gather spans (service track)
//   each PersistentTeam rank->  a rank_solve span per rank, with
//                               per-outer-iteration checkpoint spans and the
//                               rank's measured kernel spans (allreduce
//                               waits, halo phases) nested inside
//   RecoveryManager         ->  recovery_* marks when a rollback fires
//
// Each rank thread records into its OWN fixed-capacity SpanRing -- a
// single-writer newest-kept ring with no locks, so tracing never perturbs
// rank lockstep (the bitwise-identity contract: a traced solve iterates
// identically to an untraced one).  When the
// request completes, the service thread merges every ring into ONE
// clock-aligned Chrome/Perfetto trace file: each ring carries the offset of
// its local clock epoch from the request's base epoch, merge_trace()
// applies it, sorts deterministically, and stamps every event's args with
// {trace_id, span_id, parent_span_id} so alerts (obs/anomaly.hpp) can link
// back to the exact span.
//
// Span-id scheme: ids are minted per ring as (ring_tag + 1) * 2^32 + seq,
// so ids from different ranks never collide, stay below 2^53 (exact in the
// JSON double), and encode which track minted them.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pipescg/obs/json.hpp"
#include "pipescg/obs/ring.hpp"
#include "pipescg/obs/slot.hpp"

namespace pipescg::obs {
class SolveProfile;
}

namespace pipescg::obs::tracing {

/// The propagated identity of one request: which trace spans belong to and
/// the span they nest under at the current layer.  Copied (not referenced)
/// across threads -- each layer re-parents by value.
struct TraceContext {
  std::uint64_t trace_id = 0;        ///< 0 = no trace (untraced request)
  std::uint64_t parent_span_id = 0;  ///< 0 = root of the trace
  bool valid() const { return trace_id != 0; }
};

/// Mint a fresh process-unique trace context (atomic counter, starts at 1).
TraceContext new_trace();

/// One completed span.  Times are seconds since the OWNING RING's clock
/// epoch; merge_trace() aligns them to the request base via the ring's
/// clock_offset.  `args` is a small set of numeric annotations rendered
/// into the Chrome event's args object (iteration numbers, rnorm, cache
/// hit flags...).
struct TraceSpan {
  std::string name;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  double start = 0.0;
  double end = 0.0;
  std::vector<std::pair<std::string, double>> args;
};

/// One track's span ring: a newest-kept obs::Ring (exactly one thread
/// pushes at a time -- the owning rank thread during the solve, the service
/// thread during merge) that also mints span ids and carries its clock's
/// offset from the request base epoch.
class SpanRing : public Ring<TraceSpan> {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  /// `tag` scopes minted span ids (rank index, or ranks for the service
  /// track) so ids from different rings never collide.
  explicit SpanRing(std::size_t capacity = kDefaultCapacity,
                    std::uint64_t tag = 0)
      : Ring(capacity), tag_(tag) {}

  std::uint64_t tag() const { return tag_; }

  /// Next span id for this ring: (tag + 1) * 2^32 + sequence.
  std::uint64_t mint() {
    return (tag_ + 1) * (std::uint64_t{1} << 32) + ++next_seq_;
  }

  /// Seconds the owning clock's epoch sits AFTER the request base epoch;
  /// merge_trace() adds it to every span time.  Settable directly so tests
  /// can model skewed clocks.
  void set_clock_offset(double seconds) { clock_offset_ = seconds; }
  double clock_offset() const { return clock_offset_; }

 private:
  std::uint64_t tag_;
  std::uint64_t next_seq_ = 0;
  double clock_offset_ = 0.0;
};

/// Per-thread span recorder, installed thread-locally on each rank for the
/// duration of a request (the same Install idiom as Profiler /
/// ConvergenceTelemetry: instrumentation points pay one null check when
/// tracing is off).  Owns a parent stack seeded with the request context's
/// parent span; TraceScope pushes/pops it so nested scopes parent
/// correctly.
class Tracer : public ThreadSlot<Tracer> {
 public:
  using Clock = std::chrono::steady_clock;

  /// Records into `ring`; the tracer's own epoch is Clock::now() at
  /// construction and the ring's clock_offset is set to (epoch - base), so
  /// spans merge clock-aligned against the request's base epoch.
  Tracer(TraceContext ctx, SpanRing& ring, Clock::time_point base);

  /// Test/offline constructor: explicit epoch, ring offset left untouched.
  Tracer(TraceContext ctx, SpanRing& ring);

  const TraceContext& context() const { return ctx_; }
  SpanRing& ring() { return ring_; }

  /// Seconds since this tracer's epoch.
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Innermost open scope (or the request context's parent span).
  std::uint64_t current_parent() const { return parents_.back(); }

  /// Record a completed span under the current parent; returns its id.
  std::uint64_t record(std::string name, double start, double end,
                       std::vector<std::pair<std::string, double>> args = {});

  /// Instantaneous annotation (zero-duration span) under the current
  /// parent: recovery marks, cache-hit stamps.
  std::uint64_t mark(std::string name,
                     std::vector<std::pair<std::string, double>> args = {});

  /// Called by obs::checkpoint on every rank at every outer iteration:
  /// records an `outer_iteration` span covering the time since the previous
  /// checkpoint (or since installation for the first one), annotated with
  /// the iteration count and residual norm.
  void checkpoint(std::uint64_t iteration, double rnorm);

 private:
  friend class TraceScope;

  TraceContext ctx_;
  SpanRing& ring_;
  Clock::time_point epoch_;
  std::vector<std::uint64_t> parents_;
  double last_checkpoint_ = 0.0;
};

/// RAII nested span: construction opens it (minting the id immediately so
/// children observe the right parent), destruction records it.  Null-safe:
/// a null tracer makes every operation a no-op, so call sites install
/// unconditionally.
class TraceScope {
 public:
  TraceScope(Tracer* t, std::string name);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// The minted span id (0 when the tracer is null).
  std::uint64_t span_id() const { return span_id_; }

 private:
  Tracer* t_;
  std::string name_;
  std::uint64_t span_id_ = 0;
  double start_ = 0.0;
};

/// All the rings of one request: one per rank plus one for the service
/// thread (tag == ranks), sharing one base epoch.  Built by the Session
/// when a traced request starts; rank threads each write their own ring, so
/// the structure needs no locks.
class RequestTrace {
 public:
  using Clock = std::chrono::steady_clock;

  RequestTrace(TraceContext ctx, int ranks,
               std::size_t capacity = SpanRing::kDefaultCapacity,
               Clock::time_point base = Clock::now());

  const TraceContext& context() const { return ctx_; }
  int ranks() const { return static_cast<int>(rings_.size()) - 1; }
  Clock::time_point base_epoch() const { return base_; }

  SpanRing& rank_ring(int r) { return rings_[static_cast<std::size_t>(r)]; }
  const SpanRing& rank_ring(int r) const {
    return rings_[static_cast<std::size_t>(r)];
  }
  /// The service thread's track (queue wait, dispatch, gather).
  SpanRing& service_ring() { return rings_.back(); }
  const SpanRing& service_ring() const { return rings_.back(); }

  /// Convert a measured SolveProfile into rank-track spans: each rank's
  /// kernel spans (spmv_local, allreduce_wait_*, halo_*) become children of
  /// that rank's root span `rank_roots[r]`, clock-aligned from the profile
  /// epoch.  Call after the team run returns (single-threaded).
  void add_profile(const SolveProfile& profile,
                   std::span<const std::uint64_t> rank_roots);

 private:
  TraceContext ctx_;
  Clock::time_point base_;
  std::vector<SpanRing> rings_;
};

/// Merge every ring of a request into one Chrome trace-event document:
/// {"trace_id", "displayTimeUnit", "traceEvents": [...]} with process 0
/// named for the request, one named thread per rank plus "service", all
/// span times aligned to the request base epoch, and events ordered
/// deterministically by (tid, aligned start, span_id) -- the same rings
/// merge to byte-identical JSON regardless of how rank execution
/// interleaved.
json::Value merge_trace(const RequestTrace& trace);

/// Directory of per-request trace files: write() renders one request to
/// `<dir>/trace_<trace_id>.json`.  Thread-safe (the service layer may run
/// sessions from several threads).
class TraceSink {
 public:
  explicit TraceSink(std::string dir);

  const std::string& dir() const { return dir_; }
  std::string path_for(std::uint64_t trace_id) const;

  /// Returns the written path.
  std::string write(const RequestTrace& trace);

  std::size_t written() const;

 private:
  std::string dir_;
  mutable std::mutex mu_;
  std::size_t written_ = 0;
};

}  // namespace pipescg::obs::tracing
