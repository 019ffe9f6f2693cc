#include "pipescg/obs/report.hpp"

#include <vector>

#include "pipescg/obs/metrics.hpp"

namespace pipescg::obs {
namespace {

json::Value min_med_max_to_json(const MinMedMax& m) {
  json::Value v = json::Value::object();
  v.set("min", m.min);
  v.set("median", m.median);
  v.set("max", m.max);
  return v;
}

// One histogram as {"count", "p50/p95/p99_seconds", ...}.
json::Value histogram_to_json(const LatencyHistogram& h) {
  json::Value v = json::Value::object();
  v.set("count", h.count());
  v.set("sum_seconds", h.sum_seconds());
  v.set("min_seconds", h.min_seconds());
  v.set("p50_seconds", h.quantile(0.50));
  v.set("p95_seconds", h.quantile(0.95));
  v.set("p99_seconds", h.quantile(0.99));
  v.set("max_seconds", h.max_seconds());
  return v;
}

}  // namespace

json::Value stats_to_json(const krylov::SolveStats& stats) {
  json::Value v = json::Value::object();
  v.set("method", stats.method);
  v.set("converged", stats.converged);
  v.set("stagnated", stats.stagnated);
  v.set("breakdown", stats.breakdown);
  v.set("iterations", stats.iterations);
  v.set("recoveries", stats.recoveries);
  v.set("final_s", stats.final_s);
  v.set("b_norm", stats.b_norm);
  v.set("final_rnorm", stats.final_rnorm);
  v.set("true_residual", stats.true_residual);
  v.set("basis", stats.basis);
  if (stats.basis_lambda_max > 0.0) {
    v.set("basis_lambda_min", stats.basis_lambda_min);
    v.set("basis_lambda_max", stats.basis_lambda_max);
  }
  // Stability section: emitted zero-or-not so reports diff key-for-key
  // (gaps stay at the -1 sentinel when the monitor never ran).
  {
    json::Value gap = json::Value::object();
    gap.set("checks", stats.gap_checks);
    gap.set("replacements", stats.replacements);
    gap.set("failed_replacements", stats.failed_replacements);
    gap.set("gram_breakdowns", stats.gram_breakdowns);
    gap.set("last_gap", stats.last_residual_gap);
    gap.set("max_gap", stats.max_residual_gap);
    v.set("residual_gap", std::move(gap));
  }
  if (stats.condition_est > 0.0) {
    v.set("lambda_min_est", stats.lambda_min_est);
    v.set("lambda_max_est", stats.lambda_max_est);
    v.set("condition_est", stats.condition_est);
  }
  json::Value history = json::Value::array();
  for (const auto& [iter, rnorm] : stats.history) {
    json::Value point = json::Value::array();
    point.push_back(iter);
    point.push_back(rnorm);
    history.push_back(std::move(point));
  }
  v.set("history", std::move(history));
  return v;
}

json::Value counters_to_json(const Profiler::Counters& counters) {
  json::Value v = json::Value::object();
  v.set("spmvs", counters.spmvs);
  v.set("pc_applies", counters.pc_applies);
  v.set("allreduces", counters.allreduces);
  v.set("iterations", counters.iterations);
  v.set("mpk_blocks", counters.mpk_blocks);
  v.set("recoveries", counters.recoveries);
  v.set("halo_epochs", counters.halo_epochs);
  v.set("halo_messages", counters.halo_messages);
  v.set("halo_volume_doubles", counters.halo_volume_doubles);
  v.set("spmv_bytes", counters.spmv_bytes);
  return v;
}

json::Value counters_to_json(const sim::EventTrace::Counters& counters) {
  json::Value v = json::Value::object();
  v.set("spmvs", counters.spmvs);
  v.set("pc_applies", counters.pc_applies);
  v.set("allreduces", counters.allreduces);
  v.set("iterations", counters.iterations);
  v.set("vector_flops", counters.vector_flops);
  return v;
}

json::Value profile_to_json(const SolveProfile& profile) {
  json::Value v = json::Value::object();
  v.set("ranks", profile.ranks());
  v.set("counters_uniform", profile.counters_uniform());

  // Every kind is emitted everywhere below, zero or not: reports from runs
  // that exercised different span kinds (e.g. zero recoveries, no halo
  // traffic) must still diff key-for-key.
  json::Value per_rank = json::Value::array();
  for (int r = 0; r < profile.ranks(); ++r) {
    const Profiler& p = profile.rank(r);
    json::Value rank = json::Value::object();
    rank.set("rank", r);
    rank.set("counters", counters_to_json(p.counters()));
    json::Value kinds = json::Value::object();
    for (std::size_t k = 0; k < kSpanKindCount; ++k) {
      const SpanKind kind = static_cast<SpanKind>(k);
      const Profiler::KindTotal t = p.total(kind);
      json::Value entry = json::Value::object();
      entry.set("seconds", t.seconds);
      entry.set("count", t.count);
      kinds.set(to_string(kind), std::move(entry));
    }
    rank.set("spans", std::move(kinds));
    per_rank.push_back(std::move(rank));
  }
  v.set("per_rank", std::move(per_rank));

  // min/median/max over ranks for every kind.
  json::Value aggregates = json::Value::object();
  for (std::size_t k = 0; k < kSpanKindCount; ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    const SolveProfile::Aggregate a = profile.aggregate(kind);
    json::Value entry = json::Value::object();
    entry.set("count", a.count);
    entry.set("min_seconds", a.min);
    entry.set("median_seconds", a.median);
    entry.set("max_seconds", a.max);
    aggregates.set(to_string(kind), std::move(entry));
  }
  v.set("aggregates", std::move(aggregates));

  // min/median/max over ranks of the fault-recovery counter, explicit even
  // when every rank recorded zero.
  std::vector<double> recoveries;
  for (int r = 0; r < profile.ranks(); ++r)
    recoveries.push_back(
        static_cast<double>(profile.rank(r).counters().recoveries));
  v.set("recoveries_over_ranks",
        min_med_max_to_json(min_med_max(std::move(recoveries))));

  // Cross-rank latency histograms: all span kinds plus the composite
  // whole-epoch halo exchange sampled by par::Comm::exchange.
  json::Value histograms = json::Value::object();
  for (std::size_t k = 0; k < kSpanKindCount; ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    histograms.set(to_string(kind),
                   histogram_to_json(profile.merged_histogram(kind)));
  }
  histograms.set("halo_exchange",
                 histogram_to_json(profile.merged_halo_exchange_histogram()));
  v.set("histograms", std::move(histograms));
  return v;
}

json::Value overlap_to_json(const OverlapReport& report) {
  json::Value v = json::Value::object();
  v.set("ranks", report.ranks);
  v.set("blocks", report.blocks);
  v.set("nonblocking_blocks", report.nonblocking_blocks);
  v.set("hidden_seconds", report.hidden_seconds);
  v.set("exposed_seconds", report.exposed_seconds);
  v.set("total_wait_seconds", report.total_wait_seconds);
  v.set("efficiency", report.efficiency);

  v.set("efficiency_over_ranks",
        min_med_max_to_json(report.efficiency_over_ranks));
  v.set("exposed_over_ranks", min_med_max_to_json(report.exposed_over_ranks));

  json::Value per_rank = json::Value::array();
  for (const RankOverlap& ro : report.per_rank) {
    json::Value e = json::Value::object();
    e.set("rank", ro.rank);
    e.set("blocks", ro.blocks.size());
    e.set("hidden_seconds", ro.hidden_seconds);
    e.set("exposed_seconds", ro.exposed_seconds);
    e.set("total_wait_seconds", ro.total_wait_seconds);
    e.set("efficiency", ro.efficiency);
    per_rank.push_back(std::move(e));
  }
  v.set("per_rank", std::move(per_rank));

  const CriticalPath& cp = report.critical_path;
  json::Value path = json::Value::object();
  path.set("makespan_seconds", cp.makespan);
  path.set("end_rank", cp.end_rank);
  path.set("rank_switches", cp.rank_switches);
  path.set("untracked_seconds", cp.untracked_seconds);
  json::Value attribution = json::Value::array();
  for (const KindAttribution& a : cp.attribution) {
    json::Value e = json::Value::object();
    e.set("kind", a.kind);
    e.set("seconds", a.seconds);
    e.set("spans", a.spans);
    attribution.push_back(std::move(e));
  }
  path.set("attribution", std::move(attribution));
  v.set("critical_path", std::move(path));
  return v;
}

json::Value drift_to_json(const DriftReport& report) {
  json::Value v = json::Value::object();
  v.set("threshold", report.threshold);
  v.set("modeled_makespan_seconds", report.modeled_makespan);
  v.set("measured_makespan_seconds", report.measured_makespan);
  json::Value kinds = json::Value::object();
  for (const DriftEntry& e : report.kinds) {
    json::Value entry = json::Value::object();
    entry.set("modeled_seconds", e.modeled_seconds);
    entry.set("measured_seconds", e.measured_seconds);
    entry.set("has_measured", e.has_measured);
    entry.set("delta_seconds", e.delta);
    entry.set("ratio", e.ratio);
    entry.set("flagged", e.flagged);
    if (!e.note.empty()) entry.set("note", e.note);
    kinds.set(e.kind, std::move(entry));
  }
  v.set("kinds", std::move(kinds));
  return v;
}

json::Value solve_report(const krylov::SolveStats& stats,
                         const SolveProfile* profile,
                         const OverlapReport* overlap,
                         const DriftReport* drift,
                         const metrics::Registry* registry) {
  json::Value v = json::Value::object();
  v.set("method", stats.method);
  v.set("stats", stats_to_json(stats));
  if (profile != nullptr) v.set("profile", profile_to_json(*profile));
  if (overlap != nullptr) v.set("overlap", overlap_to_json(*overlap));
  if (drift != nullptr) v.set("drift", drift_to_json(*drift));
  if (registry != nullptr) v.set("metrics", registry->to_json());
  return v;
}

}  // namespace pipescg::obs
