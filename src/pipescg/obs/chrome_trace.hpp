// Chrome trace-event JSON export (load the file in Perfetto / about:tracing).
//
// Every Chrome trace the repo writes goes through ChromeTraceBuilder, so the
// sources are visually comparable:
//   * a measured obs::SolveProfile -- one track (tid) per SPMD rank;
//   * a modeled sim::Timeline schedule -- one track for the representative
//     rank clock plus a "network" track showing each collective in flight;
//   * a merged per-request trace (tracing::merge_trace).
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

/// Append a measured per-rank profile as process `pid`: one thread per rank,
/// spans categorized "measured".
void add_profile(ChromeTraceBuilder& builder, const SolveProfile& profile,
                 int pid, const std::string& process_name);

/// Append a modeled schedule (from sim::Timeline::evaluate with schedule
/// capture) as process `pid`: the representative rank clock on tid 0 and
/// in-flight collectives on tid 1, spans categorized "modeled".
void add_schedule(ChromeTraceBuilder& builder,
                  std::span<const sim::ScheduledSpan> schedule, int pid,
                  const std::string& process_name);

}  // namespace pipescg::obs
