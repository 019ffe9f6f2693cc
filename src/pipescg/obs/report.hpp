// Structured JSON solve reports.
//
// One report combines everything a post-hoc analysis needs about a solve:
// the SolveStats (convergence flags, iterations, spectrum estimates), the
// full residual history, and -- when the run was profiled -- per-rank
// measured kernel totals with min/median/max-over-ranks aggregates,
// including the non-blocking allreduce wait-spin time that quantifies
// overlap quality.
#pragma once

#include <string>

#include "pipescg/krylov/solver.hpp"
#include "pipescg/obs/analysis.hpp"
#include "pipescg/obs/json.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/sim/trace.hpp"

namespace pipescg::obs {

namespace metrics {
class Registry;
}

/// SolveStats (+ history) as a JSON object.
json::Value stats_to_json(const krylov::SolveStats& stats);

/// Counters as a JSON object (shared shape between the measured profiler
/// counters and sim::EventTrace::Counters, so reports can juxtapose them).
json::Value counters_to_json(const Profiler::Counters& counters);
json::Value counters_to_json(const sim::EventTrace::Counters& counters);

/// Per-rank totals and cross-rank aggregates of a measured profile,
/// including per-kind latency histograms merged across ranks.  Every span
/// kind appears in per-rank spans, aggregates, and histograms even at zero
/// count, so reports from different runs diff key-for-key.
json::Value profile_to_json(const SolveProfile& profile);

/// Overlap-analyzer output: totals, per-rank summaries (block details stay
/// in the C++ structs), imbalance, and the critical-path attribution.
json::Value overlap_to_json(const OverlapReport& report);

/// Drift report: one entry per modeled ScheduledSpan kind.  Sign
/// convention: delta = measured - modeled (positive: run slower than model).
json::Value drift_to_json(const DriftReport& report);

/// Full solve report:
///   {"method", "stats": {...}, "profile": {...}?, "overlap": {...}?,
///    "drift": {...}?, "metrics": {...}?}.
/// `profile`, `overlap`, `drift`, and `registry` may be nullptr (serial /
/// unprofiled / unanalyzed / unmetered runs).  When a metrics registry is
/// passed, its key-stable JSON snapshot (metrics::Registry::to_json) is
/// folded in, so one report carries the same surface a scraper sees.
json::Value solve_report(const krylov::SolveStats& stats,
                         const SolveProfile* profile,
                         const OverlapReport* overlap = nullptr,
                         const DriftReport* drift = nullptr,
                         const metrics::Registry* registry = nullptr);

}  // namespace pipescg::obs
