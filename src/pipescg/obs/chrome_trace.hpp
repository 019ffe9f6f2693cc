// Chrome trace-event JSON export (load the file in Perfetto / about:tracing).
//
// Every Chrome trace the repo writes goes through ChromeTraceBuilder, so the
// sources are visually comparable:
//   * a recording (obs::SolveProfile) -- one track (tid) per SPMD rank plus
//     the service track; a request recording is the same tracks with trace
//     ids in every event's args (tracing::merge_trace);
//   * a modeled sim::Timeline schedule -- one track for the representative
//     rank clock plus a "network" track showing each collective in flight.
// Each source becomes one trace "process" (pid), so a single file can hold
// the measured run and its model side by side.
#pragma once

#include <span>
#include <string>

#include "pipescg/obs/json.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/sim/timeline.hpp"

namespace pipescg::obs {

/// Accumulates trace events; build() yields the standard
/// {"traceEvents": [...], "displayTimeUnit": "ms"} document.
class ChromeTraceBuilder {
 public:
  ChromeTraceBuilder();

  /// Metadata: names shown on the Perfetto process/track headers.
  void name_process(int pid, const std::string& name);
  void name_thread(int pid, int tid, const std::string& name);

  /// One complete ("X") event; times in seconds, converted to microseconds.
  /// A non-null `args` object becomes the event's args.
  void add_span(int pid, int tid, const std::string& name,
                const std::string& category, double start_seconds,
                double end_seconds, json::Value args = {});

  json::Value build() const { return doc_; }

 private:
  json::Value doc_;
  json::Value* events();
};

/// Append a recording as process `pid`: one thread per rank plus "service"
/// when that track holds spans, events ordered by (track, start, span id)
/// and carrying their span args.  Spans are categorized "measured", or
/// "request" with trace_id/span_id/parent_span_id args when the recording
/// has a trace context.
void add_profile(ChromeTraceBuilder& builder, const SolveProfile& profile,
                 int pid, const std::string& process_name);

/// Append a modeled schedule (from sim::Timeline::evaluate with schedule
/// capture) as process `pid`: the representative rank clock on tid 0 and
/// in-flight collectives on tid 1, spans categorized "modeled".
void add_schedule(ChromeTraceBuilder& builder,
                  std::span<const sim::ScheduledSpan> schedule, int pid,
                  const std::string& process_name);

}  // namespace pipescg::obs
