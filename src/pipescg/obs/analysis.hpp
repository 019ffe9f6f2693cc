// Overlap analyzer: turn measured per-rank spans into answers.
//
// The profiler (obs/profiler.hpp) records what each rank did; this layer
// reconstructs the cross-rank dependency structure and computes the three
// quantities the pipelined s-step CG literature uses to judge a pipelining
// *result* rather than a pipelining *claim*:
//
//  * Overlap efficiency -- for every allreduce, FIFO-pair its post span with
//    its wait span on each rank.  The window from post-end to wait-start is
//    HIDDEN latency (the rank was doing SPMV/PC/dot compute while the
//    collective was in flight); wait-start to wait-end is EXPOSED latency
//    (the rank spun).  hidden + exposed == total by construction, and
//    efficiency = hidden / total.  In the s-step drivers each non-blocking
//    pair is one s-step block (one MPI_Iallreduce per s iterations), so the
//    per-pair records double as per-block records.
//
//  * Per-rank imbalance -- min/median/max over ranks of efficiency and
//    exposed seconds; a wide spread means one slow rank is serializing the
//    collective for everyone.
//
//  * Critical path -- a backward walk from the globally last span end,
//    jumping ranks at collective joins: an allreduce completes when the
//    LAST rank publishes its contribution (ordering contract: all ranks
//    post every collective in the same order, so the k-th post on each rank
//    is the same operation), and a halo expose/close barrier releases when
//    the last rank arrives.  The walk attributes every second of the
//    makespan to a span kind (gaps between instrumented spans count as
//    "untracked"), which names the kind actually gating the solve.
//
// The drift report closes the loop with sim/: replay the recorded serial
// EventTrace through sim::Timeline at the same rank count and compare each
// modeled ScheduledSpan::Kind against its measured counterpart.  Sign
// convention: delta = measured - modeled, so positive delta means the real
// run was SLOWER than the model predicted.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "pipescg/obs/profiler.hpp"
#include "pipescg/sim/timeline.hpp"

namespace pipescg::obs {

/// One post->wait pairing of an allreduce on one rank.  For the pipelined
/// s-step drivers a non-blocking pair is one s-step block.
struct BlockOverlap {
  std::size_t index = 0;  // allreduce index on this rank, in post order
  bool nonblocking = false;  // wait span was kAllreduceWaitNonblocking
  double post_end = 0.0;
  double wait_start = 0.0;
  double wait_end = 0.0;
  double hidden() const { return wait_start - post_end; }
  double exposed() const { return wait_end - wait_start; }
  double total() const { return wait_end - post_end; }
};

struct RankOverlap {
  int rank = 0;
  std::vector<BlockOverlap> blocks;
  double hidden_seconds = 0.0;
  double exposed_seconds = 0.0;
  double total_wait_seconds = 0.0;  // == hidden + exposed
  double efficiency = 0.0;          // hidden / total; 0 when no pairs
};

struct MinMedMax {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
};

/// min, median (the upper middle) and max of `v`; all zero when empty.
MinMedMax min_med_max(std::vector<double> v);

/// Seconds of the critical path spent in one span kind.
struct KindAttribution {
  std::string kind;  // obs::to_string(SpanKind), or "untracked"
  double seconds = 0.0;
  std::size_t spans = 0;
};

struct CriticalPath {
  double makespan = 0.0;  // latest span end over all ranks
  int end_rank = 0;       // rank owning that last span
  std::size_t rank_switches = 0;  // cross-rank jumps taken by the walk
  double untracked_seconds = 0.0;
  std::vector<KindAttribution> attribution;  // sorted by seconds, descending
};

struct OverlapReport {
  int ranks = 0;
  std::vector<RankOverlap> per_rank;
  std::size_t blocks = 0;              // pairs per rank (uniform)
  std::size_t nonblocking_blocks = 0;  // of which overlapped-style waits
  // Sums over ranks.
  double hidden_seconds = 0.0;
  double exposed_seconds = 0.0;
  double total_wait_seconds = 0.0;
  double efficiency = 0.0;  // sum(hidden) / sum(total)
  // Imbalance across ranks.
  MinMedMax efficiency_over_ranks;
  MinMedMax exposed_over_ranks;
  CriticalPath critical_path;
};

/// Reconstruct the span DAG from a measured profile and analyze it.
OverlapReport analyze_overlap(const SolveProfile& profile);

/// One-screen human summary (totals, imbalance, critical-path top kinds);
/// used by runtime_tour's --analyze console output.
std::string overlap_summary(const OverlapReport& report);

/// Modeled-vs-measured comparison for one ScheduledSpan kind.
struct DriftEntry {
  std::string kind;  // sim::to_string(ScheduledSpan::Kind)
  double modeled_seconds = 0.0;
  double measured_seconds = 0.0;
  bool has_measured = false;  // false: no faithful measured counterpart
  double delta = 0.0;         // measured - modeled (positive: run slower)
  double ratio = 0.0;         // measured / modeled (0 when modeled == 0)
  bool flagged = false;       // relative drift above threshold
  std::string note;           // coverage caveats, empty when exact
};

struct DriftReport {
  double threshold = 0.0;  // relative-drift flag level
  double modeled_makespan = 0.0;
  double measured_makespan = 0.0;
  std::vector<DriftEntry> kinds;  // one entry per ScheduledSpan::Kind
};

/// Compare a modeled schedule (sim::Timeline::evaluate with schedule
/// capture, at the measured rank count) against the measured profile.
/// Measured seconds are the median over ranks of each kind's mapped span
/// totals; `overlap` supplies the post->completion allreduce windows that
/// the raw spans cannot express.  Kinds with |measured - modeled| >
/// relative_threshold * max(|modeled|, |measured|) are flagged.
DriftReport drift_report(std::span<const sim::ScheduledSpan> schedule,
                         const SolveProfile& profile,
                         const OverlapReport& overlap,
                         double relative_threshold = 0.5);

}  // namespace pipescg::obs
