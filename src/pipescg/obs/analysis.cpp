#include "pipescg/obs/analysis.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>

namespace pipescg::obs {

namespace {

constexpr double kEps = 1e-12;

bool is_allreduce_wait(SpanKind k) {
  return k == SpanKind::kAllreduceWaitBlocking ||
         k == SpanKind::kAllreduceWaitNonblocking;
}

// Per-rank view of a profile: kernel spans sorted by start (per-rank kernel
// spans are sequential and non-overlapping, so this is also end order), plus
// the per-kind orderings used to match collectives across ranks.
struct RankSpans {
  std::vector<Span> sorted;
  std::vector<double> ends;  // sorted[i].end, for binary search
  std::vector<std::size_t> posts;    // indices into sorted, in time order
  std::vector<std::size_t> waits;    // allreduce waits (both kinds)
  std::vector<std::size_t> exposes;  // kHaloExpose
  std::vector<std::size_t> closes;   // kHaloClose
};

std::vector<RankSpans> index_profile(const SolveProfile& profile) {
  std::vector<RankSpans> out(static_cast<std::size_t>(profile.ranks()));
  for (int r = 0; r < profile.ranks(); ++r) {
    RankSpans& rs = out[static_cast<std::size_t>(r)];
    for (const Span& s : profile.rank(r).spans())
      if (s.is_kernel()) rs.sorted.push_back(s);
    std::stable_sort(rs.sorted.begin(), rs.sorted.end(),
                     [](const Span& a, const Span& b) {
                       return a.start < b.start;
                     });
    rs.ends.reserve(rs.sorted.size());
    for (std::size_t i = 0; i < rs.sorted.size(); ++i) {
      const Span& s = rs.sorted[i];
      rs.ends.push_back(s.end);
      if (s.kind == SpanKind::kAllreducePost) rs.posts.push_back(i);
      if (is_allreduce_wait(s.kind)) rs.waits.push_back(i);
      if (s.kind == SpanKind::kHaloExpose) rs.exposes.push_back(i);
      if (s.kind == SpanKind::kHaloClose) rs.closes.push_back(i);
    }
  }
  return out;
}

// Ordinal of sorted-index `idx` within the (ascending) index list `order`.
std::size_t ordinal_of(const std::vector<std::size_t>& order,
                       std::size_t idx) {
  const auto it = std::lower_bound(order.begin(), order.end(), idx);
  return static_cast<std::size_t>(it - order.begin());
}

// Backward walk from the globally last span end.  At collective joins the
// walk jumps to the rank that actually determined the completion time: for
// the k-th allreduce, the last rank to finish its k-th post; for the k-th
// halo expose/close barrier, the last rank to arrive (latest span start).
// Index-based matching is valid by the SPMD ordering contract -- every rank
// posts every collective and opens/closes every epoch in the same order.
CriticalPath walk_critical_path(const std::vector<RankSpans>& ranks) {
  CriticalPath cp;
  const std::size_t nranks = ranks.size();
  std::size_t total_spans = 0;
  for (std::size_t r = 0; r < nranks; ++r) {
    total_spans += ranks[r].sorted.size();
    if (!ranks[r].sorted.empty() && ranks[r].ends.back() > cp.makespan) {
      cp.makespan = ranks[r].ends.back();
      cp.end_rank = static_cast<int>(r);
    }
  }
  if (total_spans == 0) return cp;

  // Cross-rank matching needs the k-th collective to exist on every rank.
  std::size_t n_posts = ranks[0].posts.size();
  std::size_t n_exposes = ranks[0].exposes.size();
  std::size_t n_closes = ranks[0].closes.size();
  for (const RankSpans& rs : ranks) {
    n_posts = std::min(n_posts, rs.posts.size());
    n_exposes = std::min(n_exposes, rs.exposes.size());
    n_closes = std::min(n_closes, rs.closes.size());
  }

  std::array<double, kSpanKindCount> seconds{};
  std::array<std::size_t, kSpanKindCount> counts{};
  double t = cp.makespan;
  std::size_t r = static_cast<std::size_t>(cp.end_rank);
  // Each step either consumes one span or jumps backward in time; the guard
  // bounds pathological traces (overlapping hand-built spans).
  std::size_t guard = 4 * total_spans + 16;

  while (t > kEps && guard-- > 0) {
    const RankSpans& rs = ranks[r];
    const auto it =
        std::upper_bound(rs.ends.begin(), rs.ends.end(), t + kEps);
    if (it == rs.ends.begin()) break;  // nothing earlier on this rank
    const std::size_t idx = static_cast<std::size_t>(it - rs.ends.begin()) - 1;
    const Span& s = rs.sorted[idx];
    if (s.end < t - kEps) {
      // Gap between instrumented spans: rank-local vector work, scalar
      // work, or scheduler noise.  Attributed as untracked.
      cp.untracked_seconds += t - s.end;
      t = s.end;
      continue;
    }
    const std::size_t k = static_cast<std::size_t>(s.kind);
    if (is_allreduce_wait(s.kind)) {
      const std::size_t ord = ordinal_of(rs.waits, idx);
      if (ord < n_posts) {
        // Completion was gated by the last contribution to arrive.
        std::size_t q = r;
        double ready = 0.0;
        for (std::size_t p = 0; p < nranks; ++p) {
          const double pe = ranks[p].sorted[ranks[p].posts[ord]].end;
          if (pe > ready) {
            ready = pe;
            q = p;
          }
        }
        ready = std::min(ready, t);
        if (q != r && ready > s.start + kEps) {
          seconds[k] += t - ready;
          ++counts[k];
          t = ready;
          r = q;
          ++cp.rank_switches;
          continue;
        }
      }
    } else if (s.kind == SpanKind::kHaloExpose ||
               s.kind == SpanKind::kHaloClose) {
      const bool expose = s.kind == SpanKind::kHaloExpose;
      const std::size_t ord =
          ordinal_of(expose ? rs.exposes : rs.closes, idx);
      if (ord < (expose ? n_exposes : n_closes)) {
        // Barrier epochs release when the last rank arrives.
        std::size_t q = r;
        double arrive = 0.0;
        for (std::size_t p = 0; p < nranks; ++p) {
          const auto& order = expose ? ranks[p].exposes : ranks[p].closes;
          const double st = ranks[p].sorted[order[ord]].start;
          if (st > arrive) {
            arrive = st;
            q = p;
          }
        }
        arrive = std::min(arrive, t);
        if (q != r && arrive > s.start + kEps) {
          seconds[k] += t - arrive;
          ++counts[k];
          t = arrive;
          r = q;
          ++cp.rank_switches;
          continue;
        }
      }
    }
    seconds[k] += t - s.start;
    ++counts[k];
    t = s.start;
  }
  if (t > kEps) cp.untracked_seconds += t;

  for (std::size_t k = 0; k < kSpanKindCount; ++k) {
    if (counts[k] == 0) continue;
    cp.attribution.push_back(KindAttribution{
        to_string(static_cast<SpanKind>(k)), seconds[k], counts[k]});
  }
  if (cp.untracked_seconds > 0.0)
    cp.attribution.push_back(
        KindAttribution{"untracked", cp.untracked_seconds, 0});
  std::stable_sort(cp.attribution.begin(), cp.attribution.end(),
                   [](const KindAttribution& a, const KindAttribution& b) {
                     return a.seconds > b.seconds;
                   });
  return cp;
}

}  // namespace

MinMedMax min_med_max(std::vector<double> v) {
  MinMedMax m;
  if (v.empty()) return m;
  std::sort(v.begin(), v.end());
  m.min = v.front();
  m.max = v.back();
  m.median = v[v.size() / 2];
  return m;
}

OverlapReport analyze_overlap(const SolveProfile& profile) {
  OverlapReport report;
  report.ranks = profile.ranks();
  const std::vector<RankSpans> ranks = index_profile(profile);

  std::vector<double> efficiencies;
  std::vector<double> exposed;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const RankSpans& rs = ranks[r];
    RankOverlap ro;
    ro.rank = static_cast<int>(r);
    // FIFO pairing: the i-th wait completes the i-th post.  Valid because
    // the runtime has bounded in-flight slots consumed in order and every
    // driver waits in post order (a blocking allreduce is simply a pair
    // whose wait starts at post end, i.e. hidden ~ 0).
    const std::size_t pairs = std::min(rs.posts.size(), rs.waits.size());
    for (std::size_t i = 0; i < pairs; ++i) {
      const Span& post = rs.sorted[rs.posts[i]];
      const Span& wait = rs.sorted[rs.waits[i]];
      BlockOverlap b;
      b.index = i;
      b.nonblocking = wait.kind == SpanKind::kAllreduceWaitNonblocking;
      b.post_end = post.end;
      b.wait_start = wait.start;
      b.wait_end = wait.end;
      ro.hidden_seconds += b.hidden();
      ro.exposed_seconds += b.exposed();
      ro.total_wait_seconds += b.total();
      ro.blocks.push_back(b);
    }
    ro.efficiency = ro.total_wait_seconds > 0.0
                        ? ro.hidden_seconds / ro.total_wait_seconds
                        : 0.0;
    report.hidden_seconds += ro.hidden_seconds;
    report.exposed_seconds += ro.exposed_seconds;
    report.total_wait_seconds += ro.total_wait_seconds;
    report.blocks = std::max(report.blocks, ro.blocks.size());
    std::size_t nb = 0;
    for (const BlockOverlap& b : ro.blocks) nb += b.nonblocking ? 1 : 0;
    report.nonblocking_blocks = std::max(report.nonblocking_blocks, nb);
    efficiencies.push_back(ro.efficiency);
    exposed.push_back(ro.exposed_seconds);
    report.per_rank.push_back(std::move(ro));
  }
  report.efficiency = report.total_wait_seconds > 0.0
                          ? report.hidden_seconds / report.total_wait_seconds
                          : 0.0;
  report.efficiency_over_ranks = min_med_max(std::move(efficiencies));
  report.exposed_over_ranks = min_med_max(std::move(exposed));
  report.critical_path = walk_critical_path(ranks);
  return report;
}

std::string overlap_summary(const OverlapReport& report) {
  std::ostringstream os;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "  overlap (%d ranks, %zu allreduce pairs/rank, %zu "
                "non-blocking):\n",
                report.ranks, report.blocks, report.nonblocking_blocks);
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "    hidden %.3e s  exposed %.3e s  total %.3e s  ->  "
                "efficiency %5.1f%%\n",
                report.hidden_seconds, report.exposed_seconds,
                report.total_wait_seconds, 100.0 * report.efficiency);
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "    efficiency over ranks   min %5.1f%%  median %5.1f%%  "
                "max %5.1f%%\n",
                100.0 * report.efficiency_over_ranks.min,
                100.0 * report.efficiency_over_ranks.median,
                100.0 * report.efficiency_over_ranks.max);
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "    exposed wait over ranks min %.3e  median %.3e  max "
                "%.3e s\n",
                report.exposed_over_ranks.min,
                report.exposed_over_ranks.median,
                report.exposed_over_ranks.max);
  os << buf;
  const CriticalPath& cp = report.critical_path;
  std::snprintf(buf, sizeof(buf),
                "    critical path %.3e s (ends on rank %d, %zu rank "
                "switches):\n",
                cp.makespan, cp.end_rank, cp.rank_switches);
  os << buf;
  const std::size_t top = std::min<std::size_t>(3, cp.attribution.size());
  for (std::size_t i = 0; i < top; ++i) {
    const KindAttribution& a = cp.attribution[i];
    std::snprintf(buf, sizeof(buf), "      %zu. %-28s %.3e s (%5.1f%%)\n",
                  i + 1, a.kind.c_str(), a.seconds,
                  cp.makespan > 0.0 ? 100.0 * a.seconds / cp.makespan : 0.0);
    os << buf;
  }
  return os.str();
}

DriftReport drift_report(std::span<const sim::ScheduledSpan> schedule,
                         const SolveProfile& profile,
                         const OverlapReport& overlap,
                         double relative_threshold) {
  using SimKind = sim::ScheduledSpan::Kind;
  DriftReport report;
  report.threshold = relative_threshold;
  report.measured_makespan = overlap.critical_path.makespan;

  // Modeled seconds per kind from the captured schedule.
  constexpr SimKind kAllSimKinds[] = {
      SimKind::kCompute,      SimKind::kSpmv,      SimKind::kPcApply,
      SimKind::kPostOverhead, SimKind::kAllreduce, SimKind::kAllreduceWait};
  std::array<double, std::size(kAllSimKinds)> modeled{};
  for (const sim::ScheduledSpan& s : schedule) {
    modeled[static_cast<std::size_t>(s.kind)] += s.end - s.start;
    report.modeled_makespan = std::max(report.modeled_makespan, s.end);
  }

  // Measured counterpart per rank, then the median over ranks (the modeled
  // clock prices one representative rank).
  const int ranks = profile.ranks();
  auto median_of = [&](auto&& per_rank_seconds) {
    std::vector<double> v;
    v.reserve(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) v.push_back(per_rank_seconds(r));
    return min_med_max(std::move(v)).median;
  };
  auto kind_seconds = [&](int r, SpanKind k) {
    return profile.rank(r).total(k).seconds;
  };

  for (SimKind sk : kAllSimKinds) {
    DriftEntry e;
    e.kind = sim::to_string(sk);
    e.modeled_seconds = modeled[static_cast<std::size_t>(sk)];
    e.has_measured = true;
    switch (sk) {
      case SimKind::kCompute:
        // Only the dot partials of the modeled vector work are
        // span-instrumented; AXPY/VMA updates run untimed between spans.
        e.measured_seconds = median_of(
            [&](int r) { return kind_seconds(r, SpanKind::kDotLocal); });
        e.has_measured = false;
        e.note = "measured covers dot partials only; other vector work is "
                 "untimed (shows up as critical-path untracked time)";
        break;
      case SimKind::kSpmv:
        // The modeled SPMV prices compute + halo; measured = local CSR
        // compute plus the three halo epoch phases.
        e.measured_seconds = median_of([&](int r) {
          return kind_seconds(r, SpanKind::kSpmvLocal) +
                 kind_seconds(r, SpanKind::kHaloExpose) +
                 kind_seconds(r, SpanKind::kHaloPeerRead) +
                 kind_seconds(r, SpanKind::kHaloClose);
        });
        break;
      case SimKind::kPcApply:
        e.measured_seconds = median_of(
            [&](int r) { return kind_seconds(r, SpanKind::kPcApply); });
        break;
      case SimKind::kPostOverhead:
        e.measured_seconds = median_of([&](int r) {
          return kind_seconds(r, SpanKind::kAllreducePost);
        });
        break;
      case SimKind::kAllreduce:
        // In-flight window: post end to wait end, from the overlap pairing.
        e.measured_seconds = median_of([&](int r) {
          return overlap.per_rank[static_cast<std::size_t>(r)]
              .total_wait_seconds;
        });
        e.note = "measured as the post-end..wait-end window per allreduce";
        break;
      case SimKind::kAllreduceWait:
        e.measured_seconds = median_of([&](int r) {
          return kind_seconds(r, SpanKind::kAllreduceWaitBlocking) +
                 kind_seconds(r, SpanKind::kAllreduceWaitNonblocking);
        });
        break;
    }
    e.delta = e.measured_seconds - e.modeled_seconds;
    e.ratio = e.modeled_seconds > 0.0
                  ? e.measured_seconds / e.modeled_seconds
                  : 0.0;
    const double scale =
        std::max(std::abs(e.modeled_seconds), std::abs(e.measured_seconds));
    e.flagged = e.has_measured && scale > 0.0 &&
                std::abs(e.delta) > relative_threshold * scale;
    report.kinds.push_back(std::move(e));
  }
  return report;
}

}  // namespace pipescg::obs
