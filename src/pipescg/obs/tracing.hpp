// Request-scoped distributed tracing for the service layer.
//
// The per-solve recording (obs/profiler.hpp) answers "what did the kernels
// of ONE solve cost"; a request trace answers the operator's question:
// "what happened to REQUEST 7042, end to end".  Every service::SolveContext
// mints a TraceContext (a process-unique trace_id plus the parent span
// under which its work nests), and the Session records the request into
// one SolveProfile carrying that context:
//
//   AdmissionQueue enqueue  ->  queue_wait span on the service track
//   Session dispatch        ->  the request root span (service track)
//   each PersistentTeam rank->  rank_solve > scatter / solve / gather on
//                               the rank's track, with the outer_iteration
//                               checkpoint spans and the measured kernel
//                               spans (allreduce waits, halo phases) nested
//                               under solve
//   RecoveryManager         ->  recovery_* marks when a rollback fires
//
// Each rank thread records into its OWN recorder -- a single-writer ring
// with no locks, so tracing never perturbs rank lockstep (the
// bitwise-identity contract: a traced solve iterates identically to an
// untraced one).  Every track shares the recording's epoch (the request's
// earliest enqueue), so no clock alignment is needed.  When the request
// completes, merge_trace() renders the recording as ONE Chrome/Perfetto
// document and stamps every event's args with {trace_id, span_id,
// parent_span_id} so alerts (obs/anomaly.hpp) can link back to the exact
// span.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "pipescg/obs/json.hpp"
#include "pipescg/obs/profiler.hpp"

namespace pipescg::obs::tracing {

/// Mint a fresh process-unique trace context (atomic counter, starts at 1).
TraceContext new_trace();

/// Render a request recording as one Chrome trace-event document:
/// {"trace_id", "displayTimeUnit", "traceEvents": [...]} with process 0
/// named for the request, one named thread per rank plus "service", and
/// events ordered deterministically by (track, start, span_id) -- the same
/// recording renders to byte-identical JSON regardless of how rank
/// execution interleaved.
json::Value merge_trace(const SolveProfile& trace);

/// Directory of per-request trace files: write() renders one request to
/// `<dir>/trace_<trace_id>.json`.  Thread-safe (the service layer may run
/// sessions from several threads).
class TraceSink {
 public:
  explicit TraceSink(std::string dir);

  const std::string& dir() const { return dir_; }
  std::string path_for(std::uint64_t trace_id) const;

  /// Returns the written path.
  std::string write(const SolveProfile& trace);

  std::size_t written() const;

 private:
  std::string dir_;
  mutable std::mutex mu_;
  std::size_t written_ = 0;
};

}  // namespace pipescg::obs::tracing
