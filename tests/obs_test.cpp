// Observability tests: JSON round-trips, the thread-local profiler, the
// cross-engine kernel-counter parity that certifies the SPMD profiler
// counts the same work the serial EventTrace records, and the structure of
// the Chrome-trace / report exports (validated by parsing them back).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string_view>
#include <thread>

#include "pipescg/krylov/registry.hpp"
#include "pipescg/obs/anomaly.hpp"
#include "pipescg/krylov/serial_engine.hpp"
#include "pipescg/krylov/spmd_engine.hpp"
#include "pipescg/obs/analysis.hpp"
#include "pipescg/obs/chrome_trace.hpp"
#include "pipescg/obs/json.hpp"
#include "pipescg/obs/metrics.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/obs/report.hpp"
#include "pipescg/obs/telemetry.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/precond/jacobi.hpp"
#include "pipescg/sim/timeline.hpp"
#include "pipescg/sparse/dist_csr.hpp"
#include "pipescg/sparse/stencil.hpp"

namespace pipescg::obs {
namespace {

// --- json ------------------------------------------------------------------

TEST(JsonTest, DumpParseRoundTrip) {
  json::Value doc = json::Value::object();
  doc.set("name", "pipe-pscg");
  doc.set("converged", true);
  doc.set("iterations", std::size_t{42});
  doc.set("rnorm", 1.25e-9);
  doc.set("nothing", json::Value());
  json::Value arr = json::Value::array();
  arr.push_back(1);
  arr.push_back(-2.5);
  arr.push_back("x\"y\\z\n\t");
  json::Value nested = json::Value::object();
  nested.set("k", json::Value::array());
  arr.push_back(std::move(nested));
  doc.set("list", std::move(arr));

  for (int indent : {-1, 0, 2}) {
    const json::Value back = json::parse(doc.dump(indent));
    EXPECT_EQ(back, doc) << "indent=" << indent;
  }
}

TEST(JsonTest, PreservesInsertionOrder) {
  json::Value doc = json::Value::object();
  doc.set("zebra", 1);
  doc.set("alpha", 2);
  doc.set("zebra", 3);  // overwrite keeps the original slot
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.members()[0].first, "zebra");
  EXPECT_DOUBLE_EQ(doc.members()[0].second.as_number(), 3.0);
  EXPECT_EQ(doc.members()[1].first, "alpha");
}

TEST(JsonTest, ParsesEscapesAndNumbers) {
  const json::Value v =
      json::parse(R"({"s":"a\"b\\c\nA","n":[-1.5e-3,0,7]})");
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\nA");
  EXPECT_DOUBLE_EQ(v.at("n").at(0).as_number(), -1.5e-3);
  EXPECT_DOUBLE_EQ(v.at("n").at(2).as_number(), 7.0);
}

TEST(JsonTest, NonFiniteSerializesAsNull) {
  json::Value doc = json::Value::array();
  doc.push_back(std::numeric_limits<double>::infinity());
  doc.push_back(std::numeric_limits<double>::quiet_NaN());
  const json::Value back = json::parse(doc.dump());
  EXPECT_TRUE(back.at(std::size_t{0}).is_null());
  EXPECT_TRUE(back.at(std::size_t{1}).is_null());
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(json::parse(""), Error);
  EXPECT_THROW(json::parse("{"), Error);
  EXPECT_THROW(json::parse("[1,]"), Error);
  EXPECT_THROW(json::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(json::parse("{'a':1}"), Error);
  EXPECT_THROW(json::parse("nulL"), Error);
}

TEST(JsonTest, AccessorsThrowOnTypeMismatch) {
  const json::Value v = json::parse("[1,2]");
  EXPECT_THROW(v.as_number(), Error);
  EXPECT_THROW(v.at("key"), Error);
  EXPECT_THROW(v.at(std::size_t{5}), Error);
}

// --- profiler --------------------------------------------------------------

TEST(ProfilerTest, SpanScopeRecordsAndNullIsNoop) {
  Profiler p(0, Profiler::Clock::now());
  { SpanScope span(&p, SpanKind::kSpmvLocal); }
  { SpanScope span(nullptr, SpanKind::kSpmvLocal); }  // must not crash
  ASSERT_EQ(p.spans().size(), 1u);
  EXPECT_EQ(p.spans()[0].kind, SpanKind::kSpmvLocal);
  EXPECT_GE(p.spans()[0].end, p.spans()[0].start);
  EXPECT_EQ(p.total(SpanKind::kSpmvLocal).count, 1u);
  EXPECT_EQ(p.total(SpanKind::kPcApply).count, 0u);
}

TEST(ProfilerTest, InstallIsThreadLocalAndRestores) {
  Profiler p(0, Profiler::Clock::now());
  EXPECT_EQ(Profiler::current(), nullptr);
  {
    Profiler::Install install(&p);
    EXPECT_EQ(Profiler::current(), &p);
    // Another thread must not see this thread's installation.
    Profiler* seen = &p;
    std::thread([&] { seen = Profiler::current(); }).join();
    EXPECT_EQ(seen, nullptr);
  }
  EXPECT_EQ(Profiler::current(), nullptr);
}

TEST(ProfilerTest, AggregateIsMinMedianMaxOverRanks) {
  SolveProfile profile(3);
  profile.rank(0).record(SpanKind::kDotLocal, 0.0, 1.0);
  profile.rank(1).record(SpanKind::kDotLocal, 0.0, 3.0);
  profile.rank(2).record(SpanKind::kDotLocal, 0.0, 7.0);
  const SolveProfile::Aggregate agg = profile.aggregate(SpanKind::kDotLocal);
  EXPECT_DOUBLE_EQ(agg.min, 1.0);
  EXPECT_DOUBLE_EQ(agg.median, 3.0);
  EXPECT_DOUBLE_EQ(agg.max, 7.0);
  EXPECT_EQ(agg.count, 3u);
}

// --- latency histograms ----------------------------------------------------

TEST(HistogramTest, QuantilesStayWithinObservedRange) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.add(1e-6);
  h.add(2e-6);
  h.add(4e-6);
  h.add(1e-3);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 1e-3);
  EXPECT_NEAR(h.sum_seconds(), 1e-3 + 7e-6, 1e-15);
  for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_GE(h.quantile(q), h.min_seconds()) << q;
    EXPECT_LE(h.quantile(q), h.max_seconds()) << q;
  }
  EXPECT_LE(h.quantile(0.5), h.quantile(0.99));  // monotone
  // The p99 of a distribution with one large outlier sits in the outlier's
  // factor-of-two bucket.
  EXPECT_GE(h.quantile(0.99), 1e-3 / 2.0);
}

TEST(HistogramTest, LogBucketsContainTheirSamples) {
  LatencyHistogram h;
  const double sample = 3.7e-5;  // 37000 ns -> bucket [32768, 65536) ns
  h.add(sample);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (h.bucket(i) == 0) continue;
    ++hits;
    EXPECT_LE(LatencyHistogram::bucket_floor_seconds(i), sample);
    EXPECT_GT(2.0 * LatencyHistogram::bucket_floor_seconds(i), sample);
  }
  EXPECT_EQ(hits, 1u);
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_floor_seconds(0), 1e-9);
}

TEST(HistogramTest, MergeAcrossRanksCombinesCountsAndExtrema) {
  SolveProfile profile(3);
  profile.rank(0).record(SpanKind::kDotLocal, 0.0, 1e-6);
  profile.rank(1).record(SpanKind::kDotLocal, 0.0, 8e-6);
  profile.rank(2).record(SpanKind::kDotLocal, 0.0, 1e-3);
  profile.rank(2).record(SpanKind::kDotLocal, 0.0, 2e-3);
  const LatencyHistogram merged =
      profile.merged_histogram(SpanKind::kDotLocal);
  EXPECT_EQ(merged.count(), 4u);
  EXPECT_DOUBLE_EQ(merged.min_seconds(), 1e-6);
  EXPECT_DOUBLE_EQ(merged.max_seconds(), 2e-3);
  EXPECT_NEAR(merged.sum_seconds(), 1e-6 + 8e-6 + 1e-3 + 2e-3, 1e-15);
  // merge() itself: merging an empty histogram changes nothing.
  LatencyHistogram copy = merged;
  copy.merge(LatencyHistogram{});
  EXPECT_EQ(copy.count(), merged.count());
  EXPECT_DOUBLE_EQ(copy.quantile(0.5), merged.quantile(0.5));
  // Other kinds stay empty; the composite halo-exchange histogram is
  // separate from the per-phase kinds.
  EXPECT_EQ(profile.merged_histogram(SpanKind::kSpmvLocal).count(), 0u);
  profile.rank(0).record_halo_exchange(5e-5);
  EXPECT_EQ(profile.merged_halo_exchange_histogram().count(), 1u);
  EXPECT_EQ(profile.merged_histogram(SpanKind::kHaloExpose).count(), 0u);
}

// --- convergence telemetry -------------------------------------------------

TEST(TelemetryTest, JsonlRoundTrip) {
  ConvergenceTelemetry t("pipe-scg");
  TelemetryRecord r;
  r.iteration = 6;
  r.rnorm = 1.5e-3;
  r.norm_flavor = "preconditioned";
  r.s = 3;
  r.recoveries = 1;
  r.alpha = {0.5, -0.25, 0.125};
  r.beta_fro = 2.75;
  t.record(r);
  r.iteration = 9;
  r.rnorm = 7.5e-4;
  t.record(r);

  const std::string text = t.to_jsonl();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  const std::vector<TelemetryRecord> back =
      ConvergenceTelemetry::parse_jsonl(text);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].iteration, 6u);
  EXPECT_DOUBLE_EQ(back[0].rnorm, 1.5e-3);
  EXPECT_EQ(back[0].norm_flavor, "preconditioned");
  EXPECT_EQ(back[0].s, 3);
  EXPECT_EQ(back[0].recoveries, 1u);
  ASSERT_EQ(back[0].alpha.size(), 3u);
  EXPECT_DOUBLE_EQ(back[0].alpha[1], -0.25);
  EXPECT_DOUBLE_EQ(back[0].beta_fro, 2.75);
  EXPECT_EQ(back[1].iteration, 9u);
  // Every line carries the method label for multi-solve files.
  const json::Value line = json::parse(text.substr(0, text.find('\n')));
  EXPECT_EQ(line.at("method").as_string(), "pipe-scg");
  EXPECT_THROW(ConvergenceTelemetry::parse_jsonl("{broken\n"), Error);
}

TEST(TelemetryTest, GapFieldsRoundTripAndStayOffTheWireWhenUnset) {
  // Records from gap-check iterations carry true_rnorm/gap; every other
  // record omits the keys entirely so pre-gap-monitor JSONL consumers (and
  // byte-level diffs of runs with the monitor off) see unchanged lines.
  ConvergenceTelemetry t("pipe-pscg");
  TelemetryRecord checked;
  checked.iteration = 12;
  checked.rnorm = 2.0e-4;
  checked.true_rnorm = 2.5e-4;
  checked.gap = 0.2;
  t.record(checked);
  TelemetryRecord plain;
  plain.iteration = 15;
  plain.rnorm = 1.0e-4;
  t.record(plain);

  const std::string text = t.to_jsonl();
  const auto nl = text.find('\n');
  const json::Value first = json::parse(text.substr(0, nl));
  EXPECT_TRUE(first.contains("gap"));
  EXPECT_TRUE(first.contains("true_rnorm"));
  const json::Value second =
      json::parse(text.substr(nl + 1, text.size() - nl - 2));
  EXPECT_FALSE(second.contains("gap"));
  EXPECT_FALSE(second.contains("true_rnorm"));

  const std::vector<TelemetryRecord> back =
      ConvergenceTelemetry::parse_jsonl(text);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_DOUBLE_EQ(back[0].true_rnorm, 2.5e-4);
  EXPECT_DOUBLE_EQ(back[0].gap, 0.2);
  EXPECT_DOUBLE_EQ(back[1].true_rnorm, -1.0);  // sentinel survives the trip
  EXPECT_DOUBLE_EQ(back[1].gap, -1.0);
}

TEST(TelemetryTest, RingBufferEvictsOldestAndKeepsChronologicalOrder) {
  ConvergenceTelemetry t("", /*capacity=*/3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    TelemetryRecord r;
    r.iteration = i;
    t.record(std::move(r));
  }
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.dropped(), 2u);
  const std::vector<TelemetryRecord> recs = t.records();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].iteration, 2u);
  EXPECT_EQ(recs[1].iteration, 3u);
  EXPECT_EQ(recs[2].iteration, 4u);
}

TEST(TelemetryTest, CheckpointHookIsThreadLocalAndNullSafe) {
  // With no observer installed the one checkpoint hook is a no-op (must not
  // crash).
  Checkpoint cp;
  cp.iteration = 1;
  cp.rnorm = 1.0;
  cp.norm_flavor = "natural";
  cp.s = 2;
  checkpoint(cp);
  ConvergenceTelemetry t;
  EXPECT_EQ(ConvergenceTelemetry::current(), nullptr);
  {
    const ConvergenceTelemetry::Install install(&t);
    EXPECT_EQ(ConvergenceTelemetry::current(), &t);
    const double alpha[] = {0.5};
    cp.iteration = 3;
    cp.rnorm = 0.25;
    cp.alpha = alpha;
    cp.beta_fro = 1.0;
    checkpoint(cp);
    // Another thread must not see this thread's installation.
    ConvergenceTelemetry* seen = &t;
    std::thread([&] { seen = ConvergenceTelemetry::current(); }).join();
    EXPECT_EQ(seen, nullptr);
  }
  EXPECT_EQ(ConvergenceTelemetry::current(), nullptr);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.records()[0].iteration, 3u);
  EXPECT_EQ(t.records()[0].norm_flavor, "natural");
}

// --- overlap analyzer ------------------------------------------------------

TEST(OverlapTest, HandBuiltTwoRankTraceHasKnownHiddenAndExposed) {
  SolveProfile profile(2);
  // Rank 0 posts [0,1], computes [1,5], waits [5,6]: 4 s hidden, 1 exposed.
  profile.rank(0).record(SpanKind::kAllreducePost, 0.0, 1.0);
  profile.rank(0).record(SpanKind::kSpmvLocal, 1.0, 5.0);
  profile.rank(0).record(SpanKind::kAllreduceWaitNonblocking, 5.0, 6.0);
  // Rank 1 posts [0,2] and spins [2,6]: nothing hidden, 4 s exposed.
  profile.rank(1).record(SpanKind::kAllreducePost, 0.0, 2.0);
  profile.rank(1).record(SpanKind::kAllreduceWaitNonblocking, 2.0, 6.0);

  const OverlapReport report = analyze_overlap(profile);
  EXPECT_EQ(report.ranks, 2);
  EXPECT_EQ(report.blocks, 1u);
  EXPECT_EQ(report.nonblocking_blocks, 1u);
  EXPECT_DOUBLE_EQ(report.per_rank[0].hidden_seconds, 4.0);
  EXPECT_DOUBLE_EQ(report.per_rank[0].exposed_seconds, 1.0);
  EXPECT_DOUBLE_EQ(report.per_rank[0].total_wait_seconds, 5.0);
  EXPECT_DOUBLE_EQ(report.per_rank[0].efficiency, 0.8);
  EXPECT_DOUBLE_EQ(report.per_rank[1].hidden_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.per_rank[1].exposed_seconds, 4.0);
  EXPECT_DOUBLE_EQ(report.per_rank[1].efficiency, 0.0);
  // Identity hidden + exposed == total holds globally by construction.
  EXPECT_DOUBLE_EQ(report.hidden_seconds, 4.0);
  EXPECT_DOUBLE_EQ(report.exposed_seconds, 5.0);
  EXPECT_DOUBLE_EQ(report.total_wait_seconds, 9.0);
  EXPECT_DOUBLE_EQ(report.efficiency, 4.0 / 9.0);
  EXPECT_DOUBLE_EQ(report.efficiency_over_ranks.min, 0.0);
  EXPECT_DOUBLE_EQ(report.efficiency_over_ranks.max, 0.8);
  EXPECT_DOUBLE_EQ(report.exposed_over_ranks.max, 4.0);
  // The summary is renderable and mentions the headline number.
  EXPECT_NE(overlap_summary(report).find("efficiency"), std::string::npos);
}

TEST(OverlapTest, CriticalPathJumpsToTheRankGatingTheCollective) {
  // Rank 1's late post [0,4] gates the allreduce both ranks wait on; the
  // walk must end-to-start attribute [4,6] to rank 0's wait+compute and jump
  // to rank 1 for the gating post.
  SolveProfile profile(2);
  profile.rank(0).record(SpanKind::kAllreducePost, 0.0, 1.0);
  profile.rank(0).record(SpanKind::kAllreduceWaitNonblocking, 1.0, 5.0);
  profile.rank(0).record(SpanKind::kSpmvLocal, 5.0, 6.0);
  profile.rank(1).record(SpanKind::kAllreducePost, 0.0, 4.0);
  profile.rank(1).record(SpanKind::kAllreduceWaitNonblocking, 4.0, 4.5);

  const OverlapReport report = analyze_overlap(profile);
  const CriticalPath& cp = report.critical_path;
  EXPECT_DOUBLE_EQ(cp.makespan, 6.0);
  EXPECT_EQ(cp.end_rank, 0);
  EXPECT_GE(cp.rank_switches, 1u);
  double attributed = cp.untracked_seconds;
  bool saw_post = false;
  for (const KindAttribution& a : cp.attribution) {
    if (a.kind == std::string(to_string(SpanKind::kAllreducePost)))
      saw_post = true;
    if (a.kind != "untracked") attributed += a.seconds;
  }
  EXPECT_TRUE(saw_post);  // rank 1's gating post is on the path
  // Every second of the makespan is attributed to some kind (or untracked).
  EXPECT_NEAR(attributed, cp.makespan, 1e-9);
}

TEST(OverlapTest, SpmdPipeScgRunShowsPositiveOverlapAndTelemetry) {
  // Acceptance check: a real toy PIPE-sCG SPMD run must measure nonzero
  // communication-hiding, satisfy hidden + exposed == total, and emit one
  // telemetry record per residual-history entry.
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), 12, 12, "p");
  krylov::SolverOptions opts;
  opts.rtol = 1e-8;
  opts.max_iterations = 2000;
  SolveProfile profile(2);
  ConvergenceTelemetry telem("pipe-scg");
  krylov::SolveStats stats;
  const sparse::Partition part(a.rows(), 2);
  par::Team::run(2, [&](par::Comm& comm) {
    const ConvergenceTelemetry::Install telemetry_install(
        comm.rank() == 0 ? &telem : nullptr);
    const sparse::DistCsr dist(a, part, comm.rank());
    krylov::SpmdEngine engine(comm, dist, nullptr,
                              &profile.rank(comm.rank()));
    krylov::Vec ones = engine.new_vec();
    for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
    krylov::Vec b = engine.new_vec();
    engine.apply_op(ones, b);
    krylov::Vec x = engine.new_vec();
    const auto st = krylov::make_solver("pipe-scg")->solve(engine, b, x, opts);
    if (comm.rank() == 0) stats = st;
  });

  const OverlapReport report = analyze_overlap(profile);
  EXPECT_GT(report.blocks, 0u);
  EXPECT_GT(report.nonblocking_blocks, 0u);
  EXPECT_GT(report.efficiency, 0.0);
  for (const RankOverlap& r : report.per_rank) {
    EXPECT_NEAR(r.hidden_seconds + r.exposed_seconds, r.total_wait_seconds,
                1e-12 * std::max(1.0, r.total_wait_seconds));
    for (const BlockOverlap& b : r.blocks)
      EXPECT_GE(b.total(), 0.0);
  }
  EXPECT_GT(report.critical_path.makespan, 0.0);
  ASSERT_FALSE(stats.history.empty());
  EXPECT_EQ(telem.size(), stats.history.size());
  const std::vector<TelemetryRecord> recs = telem.records();
  // Records mirror the residual history entry for entry.  The final history
  // value may differ: verified acceptance rewrites history.back() with the
  // true residual after the checkpoint fires, while telemetry keeps the
  // recurred estimate the solver actually steered by.
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].iteration, stats.history[i].first);
    if (i + 1 < recs.size()) {
      EXPECT_DOUBLE_EQ(recs[i].rnorm, stats.history[i].second);
    }
  }
  EXPECT_EQ(recs.back().norm_flavor, krylov::to_string(opts.norm));
}

// The one checkpoint hook feeds every observer for every registered method:
// one telemetry record and one live checkpoint per residual-history entry.
TEST(TelemetryTest, EveryMethodFeedsOneRecordPerHistoryEntry) {
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), 12, 12, "p");
  krylov::SolverOptions opts;
  opts.rtol = 1e-8;
  opts.max_iterations = 2000;
  for (const std::string& method : krylov::solver_names()) {
    metrics::Registry registry;
    metrics::LiveSolve live(registry, {{"method", method}});
    ConvergenceTelemetry telem(method);
    krylov::SolveStats stats;
    {
      const ConvergenceTelemetry::Install telemetry_install(&telem);
      const metrics::LiveSolve::Install live_install(&live);
      precond::JacobiPreconditioner pc(a);
      krylov::SerialEngine engine(
          a, krylov::solver_uses_preconditioner(method) ? &pc : nullptr);
      krylov::Vec ones = engine.new_vec();
      for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
      krylov::Vec b = engine.new_vec();
      engine.apply_op(ones, b);
      krylov::Vec x = engine.new_vec();
      stats = krylov::make_solver(method)->solve(engine, b, x, opts);
    }
    ASSERT_FALSE(stats.history.empty()) << method;
    const std::vector<TelemetryRecord> recs = telem.records();
    ASSERT_EQ(recs.size(), stats.history.size()) << method;
    // Verified acceptance overwrites a history entry whose recurred norm
    // crossed the tolerance with the true residual; the telemetry keeps the
    // recurred value the solver steered by.  Every other entry is bitwise.
    const double tol = std::max(opts.rtol * stats.b_norm, opts.atol);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(recs[i].iteration, stats.history[i].first)
          << method << " entry " << i;
      if (recs[i].rnorm >= tol) {
        EXPECT_EQ(recs[i].rnorm, stats.history[i].second)
            << method << " entry " << i;
      }
    }
    EXPECT_EQ(registry
                  .counter("pipescg_live_checkpoints_total", "",
                           {{"method", method}})
                  .value(),
              static_cast<double>(stats.history.size()))
        << method;
  }
}

// --- drift report ----------------------------------------------------------

TEST(DriftTest, SignConventionAndEveryModeledKindPresent) {
  // Modeled: one 1 s SPMV.  Measured: the same span took 3 s, so
  // delta = measured - modeled = +2 (positive means slower than modeled).
  std::vector<sim::ScheduledSpan> schedule;
  schedule.push_back({sim::ScheduledSpan::Kind::kSpmv, 0.0, 1.0, 0, false});
  SolveProfile profile(1);
  profile.rank(0).record(SpanKind::kSpmvLocal, 0.0, 3.0);
  const OverlapReport overlap = analyze_overlap(profile);
  const DriftReport drift =
      drift_report(schedule, profile, overlap, /*relative_threshold=*/0.5);

  EXPECT_DOUBLE_EQ(drift.threshold, 0.5);
  EXPECT_DOUBLE_EQ(drift.modeled_makespan, 1.0);
  EXPECT_DOUBLE_EQ(drift.measured_makespan, 3.0);
  const std::set<std::string> expected = {"compute",       "spmv",
                                          "pc_apply",      "post_overhead",
                                          "allreduce",     "allreduce_wait"};
  std::set<std::string> seen;
  const DriftEntry* spmv = nullptr;
  const DriftEntry* pc = nullptr;
  for (const DriftEntry& e : drift.kinds) {
    seen.insert(e.kind);
    if (e.kind == "spmv") spmv = &e;
    if (e.kind == "pc_apply") pc = &e;
  }
  EXPECT_EQ(seen, expected);  // every ScheduledSpan::Kind has an entry
  ASSERT_NE(spmv, nullptr);
  EXPECT_DOUBLE_EQ(spmv->modeled_seconds, 1.0);
  EXPECT_DOUBLE_EQ(spmv->measured_seconds, 3.0);
  EXPECT_DOUBLE_EQ(spmv->delta, 2.0);
  EXPECT_DOUBLE_EQ(spmv->ratio, 3.0);
  EXPECT_TRUE(spmv->has_measured);
  EXPECT_TRUE(spmv->flagged);  // |2| > 0.5 * max(1, 3)
  // A kind at zero on both sides is present, unflagged, ratio 0.
  ASSERT_NE(pc, nullptr);
  EXPECT_DOUBLE_EQ(pc->delta, 0.0);
  EXPECT_DOUBLE_EQ(pc->ratio, 0.0);
  EXPECT_FALSE(pc->flagged);
  // JSON export carries the same kinds.
  const json::Value doc = drift_to_json(drift);
  for (const std::string& k : expected)
    EXPECT_TRUE(doc.at("kinds").contains(k)) << k;
  EXPECT_DOUBLE_EQ(
      doc.at("kinds").at("spmv").at("delta_seconds").as_number(), 2.0);
}

TEST(DriftTest, FasterThanModelGivesNegativeDelta) {
  std::vector<sim::ScheduledSpan> schedule;
  schedule.push_back({sim::ScheduledSpan::Kind::kPcApply, 0.0, 2.0, 0, false});
  SolveProfile profile(1);
  profile.rank(0).record(SpanKind::kPcApply, 0.0, 0.5);
  const OverlapReport overlap = analyze_overlap(profile);
  const DriftReport drift = drift_report(schedule, profile, overlap, 0.5);
  for (const DriftEntry& e : drift.kinds) {
    if (e.kind != "pc_apply") continue;
    EXPECT_DOUBLE_EQ(e.delta, -1.5);  // measured faster than modeled
    EXPECT_DOUBLE_EQ(e.ratio, 0.25);
    EXPECT_TRUE(e.flagged);
  }
}

// --- cross-engine counter parity -------------------------------------------

struct ParityResult {
  sim::EventTrace::Counters serial;
  std::vector<Profiler::Counters> spmd;  // one per rank
  bool uniform = false;
};

ParityResult run_parity(const std::string& method, int ranks) {
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), 12, 12, "p");
  krylov::SolverOptions opts;
  opts.rtol = 1e-8;
  opts.max_iterations = 2000;
  const bool use_pc = krylov::solver_uses_preconditioner(method);
  ParityResult result;

  {
    sim::EventTrace trace;
    precond::JacobiPreconditioner pc(a);
    krylov::SerialEngine engine(a, use_pc ? &pc : nullptr, &trace);
    krylov::Vec ones = engine.new_vec();
    for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
    krylov::Vec b = engine.new_vec();
    engine.apply_op(ones, b);
    krylov::Vec x = engine.new_vec();
    krylov::make_solver(method)->solve(engine, b, x, opts);
    result.serial = trace.counters();
  }

  SolveProfile profile(ranks);
  const sparse::Partition part(a.rows(), ranks);
  par::Team::run(ranks, [&](par::Comm& comm) {
    const sparse::DistCsr dist(a, part, comm.rank());
    const std::size_t begin = part.begin(comm.rank());
    const std::size_t len = part.local_size(comm.rank());
    const std::vector<double> full_diag = a.diagonal();
    std::vector<double> local_diag(
        full_diag.begin() + static_cast<std::ptrdiff_t>(begin),
        full_diag.begin() + static_cast<std::ptrdiff_t>(begin + len));
    precond::JacobiPreconditioner local_pc(std::move(local_diag), a.stats());
    krylov::SpmdEngine engine(comm, dist, use_pc ? &local_pc : nullptr,
                              &profile.rank(comm.rank()));
    krylov::Vec ones = engine.new_vec();
    for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
    krylov::Vec b = engine.new_vec();
    engine.apply_op(ones, b);
    krylov::Vec x = engine.new_vec();
    krylov::make_solver(method)->solve(engine, b, x, opts);
  });
  for (int r = 0; r < ranks; ++r)
    result.spmd.push_back(profile.rank(r).counters());
  result.uniform = profile.counters_uniform();
  return result;
}

class CounterParityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CounterParityTest, SpmdProfilerMatchesSerialEventTrace) {
  const ParityResult r = run_parity(GetParam(), 3);
  EXPECT_TRUE(r.uniform);
  for (const Profiler::Counters& c : r.spmd) {
    EXPECT_EQ(c.spmvs, r.serial.spmvs);
    EXPECT_EQ(c.pc_applies, r.serial.pc_applies);
    EXPECT_EQ(c.allreduces, r.serial.allreduces);
    EXPECT_EQ(c.iterations, r.serial.iterations);
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, CounterParityTest,
                         ::testing::Values("pcg", "pipe-scg", "pipe-pscg"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(CounterParityTest, SpmdRunRecordsCommAndSpmvSpans) {
  // A profiled PIPE-PsCG run must contain every instrumented span kind the
  // SPMD runtime exercises -- including the non-blocking allreduce wait spin
  // (PIPE-PsCG always posts via iallreduce and waits later).
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), 12, 12, "p");
  krylov::SolverOptions opts;
  opts.rtol = 1e-8;
  SolveProfile profile(2);
  const sparse::Partition part(a.rows(), 2);
  par::Team::run(2, [&](par::Comm& comm) {
    const sparse::DistCsr dist(a, part, comm.rank());
    const std::size_t begin = part.begin(comm.rank());
    const std::size_t len = part.local_size(comm.rank());
    const std::vector<double> full_diag = a.diagonal();
    std::vector<double> local_diag(
        full_diag.begin() + static_cast<std::ptrdiff_t>(begin),
        full_diag.begin() + static_cast<std::ptrdiff_t>(begin + len));
    precond::JacobiPreconditioner local_pc(std::move(local_diag), a.stats());
    krylov::SpmdEngine engine(comm, dist, &local_pc,
                              &profile.rank(comm.rank()));
    krylov::Vec ones = engine.new_vec();
    for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
    krylov::Vec b = engine.new_vec();
    engine.apply_op(ones, b);
    krylov::Vec x = engine.new_vec();
    krylov::make_solver("pipe-pscg")->solve(engine, b, x, opts);
  });
  for (const SpanKind kind :
       {SpanKind::kSpmvLocal, SpanKind::kHaloExpose, SpanKind::kHaloPeerRead,
        SpanKind::kHaloClose, SpanKind::kPcApply, SpanKind::kDotLocal,
        SpanKind::kAllreducePost, SpanKind::kAllreduceWaitNonblocking}) {
    EXPECT_GT(profile.aggregate(kind).count, 0u) << to_string(kind);
  }
}

// An offline profile opens no scope around the solve, so each rank's first
// outer_iteration span must start with the solve itself: never at the
// recording epoch (thread start, engine setup) and never before the rank's
// first kernel span.  With a setup SPMV before the solve (b = A 1, as
// runtime_tour builds it), the span starts after that SPMV too.
TEST(ProfilerTest, FirstCheckpointSpanStartsWithTheSolve) {
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), 12, 12, "p");
  krylov::SolverOptions opts;
  opts.rtol = 1e-8;
  const sparse::Partition part(a.rows(), 2);
  for (const bool setup_spmv : {false, true}) {
    SolveProfile profile(2);
    par::Team::run(2, [&](par::Comm& comm) {
      const sparse::DistCsr dist(a, part, comm.rank());
      const std::size_t begin = part.begin(comm.rank());
      const std::size_t len = part.local_size(comm.rank());
      const std::vector<double> full_diag = a.diagonal();
      std::vector<double> local_diag(
          full_diag.begin() + static_cast<std::ptrdiff_t>(begin),
          full_diag.begin() + static_cast<std::ptrdiff_t>(begin + len));
      precond::JacobiPreconditioner local_pc(std::move(local_diag),
                                             a.stats());
      krylov::SpmdEngine engine(comm, dist, &local_pc,
                                &profile.rank(comm.rank()));
      krylov::Vec ones = engine.new_vec();
      for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
      krylov::Vec b = engine.new_vec();
      if (setup_spmv)
        engine.apply_op(ones, b);
      else
        b = ones;
      krylov::Vec x = engine.new_vec();
      krylov::make_solver("pipe-pscg")->solve(engine, b, x, opts);
    });
    for (int r = 0; r < 2; ++r) {
      const std::vector<Span> spans = profile.rank(r).spans();
      const Span* first_iteration = nullptr;
      const Span* first_kernel = nullptr;
      const Span* first_spmv = nullptr;
      for (const Span& s : spans) {
        if (s.is_kernel() && (first_kernel == nullptr ||
                              s.start < first_kernel->start))
          first_kernel = &s;
        if (s.kind == SpanKind::kSpmvLocal &&
            (first_spmv == nullptr || s.start < first_spmv->start))
          first_spmv = &s;
        if (first_iteration == nullptr &&
            std::string_view(s.name) == "outer_iteration")
          first_iteration = &s;
      }
      ASSERT_NE(first_iteration, nullptr) << "rank " << r;
      ASSERT_NE(first_kernel, nullptr) << "rank " << r;
      EXPECT_GE(first_iteration->start, first_kernel->start)
          << "rank " << r << (setup_spmv ? " with" : " without")
          << " a setup SPMV";
      EXPECT_GT(first_iteration->start, 0.0) << "rank " << r;
      if (setup_spmv) {
        ASSERT_NE(first_spmv, nullptr);
        EXPECT_GE(first_iteration->start, first_spmv->end) << "rank " << r;
      }
    }
  }
}

// --- exporters -------------------------------------------------------------

TEST(ChromeTraceTest, BuildsValidTraceEventDocument) {
  SolveProfile profile(2);
  profile.rank(0).record(SpanKind::kSpmvLocal, 0.0, 1e-3);
  profile.rank(1).record(SpanKind::kPcApply, 1e-3, 2e-3);

  ChromeTraceBuilder builder;
  add_profile(builder, profile, /*pid=*/0, "measured");
  const json::Value doc = json::parse(builder.build().dump(2));

  ASSERT_TRUE(doc.contains("traceEvents"));
  const json::Value& events = doc.at("traceEvents");
  std::set<std::string> phases, names;
  std::set<double> tids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    phases.insert(e.at("ph").as_string());
    if (e.at("ph").as_string() == "X") {
      names.insert(e.at("name").as_string());
      tids.insert(e.at("tid").as_number());
      EXPECT_GE(e.at("dur").as_number(), 0.0);
    }
  }
  EXPECT_TRUE(phases.count("M"));  // process/thread names
  EXPECT_TRUE(phases.count("X"));
  EXPECT_TRUE(names.count("spmv_local"));
  EXPECT_TRUE(names.count("pc_apply"));
  EXPECT_EQ(tids.size(), 2u);  // one track per rank
}

TEST(ChromeTraceTest, ScheduleExportUsesModeledCategory) {
  std::vector<sim::ScheduledSpan> schedule;
  schedule.push_back({sim::ScheduledSpan::Kind::kSpmv, 0.0, 1e-3, 0, false});
  schedule.push_back(
      {sim::ScheduledSpan::Kind::kAllreduce, 1e-3, 2e-3, 1, true});
  ChromeTraceBuilder builder;
  add_schedule(builder, schedule, /*pid=*/3, "modeled");
  const json::Value doc = json::parse(builder.build().dump());
  bool saw_modeled = false;
  const json::Value& events = doc.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    if (e.at("ph").as_string() == "X") {
      EXPECT_EQ(e.at("cat").as_string(), "modeled");
      EXPECT_DOUBLE_EQ(e.at("pid").as_number(), 3.0);
      saw_modeled = true;
    }
  }
  EXPECT_TRUE(saw_modeled);
}

TEST(ReportTest, ProfileJsonHasAggregatesIncludingNonblockingWait) {
  SolveProfile profile(2);
  profile.rank(0).record(SpanKind::kAllreduceWaitNonblocking, 0.0, 2e-3);
  profile.rank(1).record(SpanKind::kAllreduceWaitNonblocking, 0.0, 4e-3);
  for (int r = 0; r < 2; ++r) {
    profile.rank(r).counters().spmvs = 5;
    profile.rank(r).counters().iterations = 4;
  }
  const json::Value doc = profile_to_json(profile);
  EXPECT_DOUBLE_EQ(doc.at("ranks").as_number(), 2.0);
  EXPECT_TRUE(doc.at("counters_uniform").as_bool());
  ASSERT_EQ(doc.at("per_rank").size(), 2u);
  const json::Value& agg = doc.at("aggregates");
  ASSERT_TRUE(agg.contains("allreduce_wait_nonblocking"));
  const json::Value& wait = agg.at("allreduce_wait_nonblocking");
  EXPECT_DOUBLE_EQ(wait.at("min_seconds").as_number(), 2e-3);
  EXPECT_DOUBLE_EQ(wait.at("max_seconds").as_number(), 4e-3);
  // The report is key-stable: every span kind appears with explicit zeros
  // even when it never fired, so two reports diff structurally
  // (tools/diff_reports.py) without ADDED/REMOVED noise.
  for (std::size_t k = 0; k < kSpanKindCount; ++k)
    ASSERT_TRUE(agg.contains(to_string(static_cast<SpanKind>(k))))
        << to_string(static_cast<SpanKind>(k));
  EXPECT_DOUBLE_EQ(agg.at("spmv_local").at("count").as_number(), 0.0);
  EXPECT_TRUE(doc.contains("histograms"));
  EXPECT_TRUE(doc.at("histograms").contains("halo_exchange"));
  // Fault counters are explicit zeros too, at zero recoveries.
  ASSERT_TRUE(doc.contains("recoveries_over_ranks"));
  EXPECT_DOUBLE_EQ(doc.at("recoveries_over_ranks").at("max").as_number(),
                   0.0);
  const json::Value empty = profile_to_json(SolveProfile(1));
  ASSERT_TRUE(empty.at("aggregates").contains("allreduce_wait_nonblocking"));
  EXPECT_DOUBLE_EQ(empty.at("aggregates")
                       .at("allreduce_wait_nonblocking")
                       .at("max_seconds")
                       .as_number(),
                   0.0);
}

TEST(ReportTest, SolveReportCombinesStatsHistoryAndProfile) {
  krylov::SolveStats stats;
  stats.iterations = 3;
  stats.converged = true;
  stats.final_rnorm = 1e-9;
  stats.history = {{0, 1.0}, {1, 0.1}, {2, 0.01}, {3, 1e-9}};
  SolveProfile profile(1);
  const json::Value doc = solve_report(stats, &profile);
  EXPECT_TRUE(doc.at("stats").at("converged").as_bool());
  EXPECT_EQ(doc.at("stats").at("history").size(), 4u);
  EXPECT_TRUE(doc.contains("profile"));
  // Round-trip through the parser: the report is valid JSON.
  EXPECT_EQ(json::parse(doc.dump(2)), doc);
}

TEST(TimelineScheduleTest, CapturedScheduleMatchesEvaluatedTotals) {
  // Record a tiny real solve, then check that the captured schedule spans
  // the full modeled makespan and prices waits consistently.
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), 10, 10, "p");
  sim::EventTrace trace;
  precond::JacobiPreconditioner pc(a);
  krylov::SerialEngine engine(a, &pc, &trace);
  krylov::Vec ones = engine.new_vec();
  for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
  krylov::Vec b = engine.new_vec();
  engine.apply_op(ones, b);
  krylov::Vec x = engine.new_vec();
  krylov::SolverOptions opts;
  opts.rtol = 1e-8;
  krylov::make_solver("pipe-pscg")->solve(engine, b, x, opts);

  const sim::Timeline timeline(sim::MachineModel::cray_xc40_like());
  std::vector<sim::ScheduledSpan> schedule;
  const sim::TimelineResult with = timeline.evaluate(trace, 8, &schedule);
  const sim::TimelineResult without = timeline.evaluate(trace, 8);
  EXPECT_DOUBLE_EQ(with.seconds, without.seconds);  // capture changes nothing
  ASSERT_FALSE(schedule.empty());
  double max_end = 0.0, wait = 0.0;
  for (const sim::ScheduledSpan& s : schedule) {
    EXPECT_GE(s.end, s.start);
    if (s.kind != sim::ScheduledSpan::Kind::kAllreduce)
      max_end = std::max(max_end, s.end);
    if (s.kind == sim::ScheduledSpan::Kind::kAllreduceWait)
      wait += s.end - s.start;
  }
  EXPECT_NEAR(max_end, with.seconds, 1e-12);
  EXPECT_NEAR(wait, with.allreduce_wait_seconds, 1e-12);
}

}  // namespace
}  // namespace pipescg::obs

// --- anomaly detectors ------------------------------------------------------

namespace pipescg::obs::anomaly {
namespace {

TEST(StragglerDetectorTest, BlamesTheRankWhoseWaitCollapses) {
  StragglerConfig cfg;
  cfg.window = 4;
  cfg.consecutive = 2;
  StragglerDetector det(4, cfg);
  // Rank 1 is the straggler: it never waits (everyone waits FOR it), so its
  // cumulative exposed wait barely grows while every peer's climbs.
  std::vector<double> cum(4, 0.0);
  std::size_t alerts = 0;
  Alert last;
  for (std::uint64_t it = 1; it <= 12; ++it) {
    for (int r = 0; r < 4; ++r) cum[static_cast<std::size_t>(r)] += (r == 1) ? 0.001 : 0.1;
    for (int r = 0; r < 4; ++r) det.publish(r, cum[static_cast<std::size_t>(r)]);
    if (std::optional<Alert> a = det.evaluate(it)) {
      ++alerts;
      last = *a;
    }
  }
  // Fires exactly once per rank per solve, blaming the right rank.
  EXPECT_EQ(alerts, 1u);
  EXPECT_EQ(last.family, "straggler");
  EXPECT_EQ(last.rank, 1);
  EXPECT_LE(last.value, -cfg.z_threshold);
  EXPECT_EQ(det.candidate(), 1);
}

TEST(StragglerDetectorTest, BalancedRanksNeverFire) {
  StragglerConfig cfg;
  cfg.window = 4;
  cfg.consecutive = 2;
  StragglerDetector det(4, cfg);
  std::vector<double> cum(4, 0.0);
  for (std::uint64_t it = 1; it <= 20; ++it) {
    for (int r = 0; r < 4; ++r) {
      cum[static_cast<std::size_t>(r)] += 0.1;
      det.publish(r, cum[static_cast<std::size_t>(r)]);
    }
    EXPECT_FALSE(det.evaluate(it).has_value());
  }
  EXPECT_EQ(det.candidate(), -1);
}

TEST(StragglerDetectorTest, TinyWaitsStayBelowTheMeanFloor) {
  StragglerConfig cfg;
  cfg.window = 2;
  cfg.consecutive = 1;
  StragglerDetector det(2, cfg);
  // Same 100:1 skew as a real straggler, but nanoseconds of total wait --
  // nothing worth blaming on an idle solve.
  double c0 = 0.0, c1 = 0.0;
  for (std::uint64_t it = 1; it <= 10; ++it) {
    c0 += 1e-7;
    c1 += 1e-9;
    det.publish(0, c0);
    det.publish(1, c1);
    EXPECT_FALSE(det.evaluate(it).has_value());
  }
}

TEST(StallDetectorTest, PlateauFiresAndRearmsAfterAFreshWindow) {
  StallConfig cfg;
  cfg.window = 4;
  StallDetector det(cfg);
  std::size_t alerts = 0;
  for (std::uint64_t it = 1; it <= 8; ++it) {
    if (std::optional<Alert> a = det.feed(it, 1.0)) {
      ++alerts;
      EXPECT_EQ(a->family, "convergence_stall");
      EXPECT_DOUBLE_EQ(a->value, 1.0);
      EXPECT_DOUBLE_EQ(a->threshold, 1.0 - cfg.min_improvement);
    }
  }
  // Window fills at feed 4 (fire), clears, refills by feed 8 (fire again).
  EXPECT_EQ(alerts, 2u);
}

TEST(StallDetectorTest, SteadyConvergenceIsSilent) {
  StallConfig cfg;
  cfg.window = 4;
  StallDetector det(cfg);
  double rnorm = 1.0;
  for (std::uint64_t it = 1; it <= 20; ++it) {
    EXPECT_FALSE(det.feed(it, rnorm).has_value());
    rnorm *= 0.5;
  }
}

TEST(StallDetectorTest, DivergenceIsTheDriversProblemNotAStall) {
  StallConfig cfg;
  cfg.window = 4;
  StallDetector det(cfg);
  double rnorm = 1.0;
  for (std::uint64_t it = 1; it <= 12; ++it) {
    EXPECT_FALSE(det.feed(it, rnorm).has_value());
    rnorm *= 3.0;  // 81x over any 4-wide window: divergence, stay silent
  }
}

TEST(QueuePressureMonitorTest, DepthAlertIsRisingEdgeOnly) {
  QueuePressureConfig cfg;
  cfg.depth_threshold = 8;
  QueuePressureMonitor mon(cfg);
  EXPECT_FALSE(mon.on_depth(7).has_value());
  std::optional<Alert> a = mon.on_depth(8);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->family, "queue_saturation");
  EXPECT_DOUBLE_EQ(a->value, 8.0);
  EXPECT_FALSE(mon.on_depth(30).has_value());  // still saturated: no repeat
  EXPECT_FALSE(mon.on_depth(3).has_value());   // falls below: re-arms
  EXPECT_TRUE(mon.on_depth(9).has_value());    // second rising edge fires
}

TEST(QueuePressureMonitorTest, DispatchHeadroomAndExpiry) {
  QueuePressureMonitor mon;
  // Plenty of headroom: quiet.
  EXPECT_FALSE(mon.on_dispatch(10.0, 0.5, false, 1).has_value());
  // Less headroom than the p95 solve latency: warning.
  std::optional<Alert> tight = mon.on_dispatch(0.1, 0.5, false, 2);
  ASSERT_TRUE(tight.has_value());
  EXPECT_EQ(tight->family, "deadline_pressure");
  EXPECT_EQ(tight->severity, "warning");
  EXPECT_EQ(tight->trace_id, 2u);
  // Already missed: critical.
  std::optional<Alert> missed = mon.on_dispatch(0.0, 0.5, true, 3);
  ASSERT_TRUE(missed.has_value());
  EXPECT_EQ(missed->severity, "critical");
}

TEST(AlertSinkTest, JsonlRoundTripsEveryFieldIncludingHostileText) {
  Alert a;
  a.family = "straggler";
  a.severity = "warning";
  a.message = "rank 3 \"slow\"\nwith back\\slash";
  a.trace_id = 7042;
  a.rank = 3;
  a.iteration = 96;
  a.value = -1.5;
  a.threshold = -1.2;
  AlertSink sink;  // memory-only
  sink.emit(a);
  Alert b;
  b.family = "deadline_pressure";
  b.severity = "critical";
  b.message = "deadline expired";
  b.trace_id = 7043;
  sink.emit(b);
  EXPECT_EQ(sink.emitted(), 2u);
  std::string text;
  for (const Alert& al : sink.alerts())
    text += AlertSink::to_json_line(al) + "\n";
  const std::vector<Alert> parsed = AlertSink::parse_jsonl(text);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].message, a.message);
  EXPECT_EQ(parsed[0].trace_id, 7042u);
  EXPECT_EQ(parsed[0].rank, 3);
  EXPECT_EQ(parsed[0].iteration, 96u);
  EXPECT_DOUBLE_EQ(parsed[0].value, -1.5);
  EXPECT_DOUBLE_EQ(parsed[0].threshold, -1.2);
  EXPECT_EQ(parsed[1].family, "deadline_pressure");
  EXPECT_EQ(parsed[1].severity, "critical");
}

TEST(MidSolveProbeTest, EmittedAlertsCarryTheTraceIdAndHitTheCallback) {
  StallConfig cfg;
  cfg.window = 2;
  StallDetector stall(cfg);
  AlertSink sink;
  static int callback_hits;
  callback_hits = 0;
  MidSolveProbe::Shared shared;
  shared.stall = &stall;
  shared.sink = &sink;
  shared.trace_id = 99;
  shared.on_alert = [](void* arg, const Alert& alert) {
    ++callback_hits;
    EXPECT_EQ(alert.trace_id, 99u);
    EXPECT_EQ(*static_cast<int*>(arg), 7);
  };
  static int cookie;
  cookie = 7;
  shared.on_alert_arg = &cookie;
  MidSolveProbe probe(&shared, /*rank=*/0);
  probe.on_checkpoint(1, 1.0);
  EXPECT_EQ(sink.emitted(), 0u);
  probe.on_checkpoint(2, 1.0);  // window=2 plateau fires
  ASSERT_EQ(sink.emitted(), 1u);
  EXPECT_EQ(sink.alerts()[0].trace_id, 99u);
  EXPECT_EQ(callback_hits, 1);
}

}  // namespace
}  // namespace pipescg::obs::anomaly
