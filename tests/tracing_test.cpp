// Request-scoped tracing tests: span-ring eviction semantics, tracer scope
// nesting, the cross-rank merge (deterministic ordering under rank
// interleavings, clock-offset alignment, id propagation), the trace sink,
// and the driver-side checkpoint/recovery hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "pipescg/fault/recovery.hpp"
#include "pipescg/krylov/solver.hpp"
#include "pipescg/obs/anomaly.hpp"
#include "pipescg/obs/json.hpp"
#include "pipescg/obs/tracing.hpp"

namespace pipescg::obs::tracing {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

TraceSpan make_span(std::string name, std::uint64_t id, std::uint64_t parent,
                    double start, double end) {
  TraceSpan s;
  s.name = std::move(name);
  s.span_id = id;
  s.parent_span_id = parent;
  s.start = start;
  s.end = end;
  return s;
}

// --- ring ------------------------------------------------------------------

TEST(SpanRingTest, EvictionKeepsNewestSpans) {
  SpanRing ring(4);
  for (int i = 0; i < 7; ++i)
    ring.push(make_span("s" + std::to_string(i), ring.mint(), 0,
                        static_cast<double>(i), static_cast<double>(i) + 0.5));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 3u);
  const std::vector<TraceSpan> spans = ring.items();
  ASSERT_EQ(spans.size(), 4u);
  // The oldest three were evicted; retained spans keep push order.
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].name,
              "s" + std::to_string(i + 3));
}

TEST(SpanRingTest, MintedIdsEncodeTheTagAndNeverCollide) {
  SpanRing rank0(8, 0);
  SpanRing rank1(8, 1);
  const std::uint64_t a = rank0.mint();
  const std::uint64_t b = rank0.mint();
  const std::uint64_t c = rank1.mint();
  EXPECT_EQ(a, (std::uint64_t{1} << 32) + 1);
  EXPECT_EQ(b, (std::uint64_t{1} << 32) + 2);
  EXPECT_EQ(c, (std::uint64_t{2} << 32) + 1);
  EXPECT_NE(a, c);
}

// --- tracer ----------------------------------------------------------------

TEST(TracerTest, ScopesNestAndParentCorrectly) {
  SpanRing ring(64, 3);
  Tracer tracer(TraceContext{42, 7}, ring);
  EXPECT_EQ(tracer.current_parent(), 7u);
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    TraceScope outer(&tracer, "outer");
    outer_id = outer.span_id();
    EXPECT_EQ(tracer.current_parent(), outer_id);
    {
      TraceScope inner(&tracer, "inner");
      inner_id = inner.span_id();
      EXPECT_EQ(tracer.current_parent(), inner_id);
    }
    EXPECT_EQ(tracer.current_parent(), outer_id);
  }
  EXPECT_EQ(tracer.current_parent(), 7u);
  const std::vector<TraceSpan> spans = ring.items();
  ASSERT_EQ(spans.size(), 2u);  // inner closes first
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent_span_id, outer_id);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent_span_id, 7u);
  EXPECT_LE(spans[1].start, spans[0].start);
  EXPECT_GE(spans[1].end, spans[0].end);
}

TEST(TracerTest, NullTracerScopesAreNoOps) {
  TraceScope scope(nullptr, "nothing");
  EXPECT_EQ(scope.span_id(), 0u);
}

TEST(TracerTest, CheckpointRecordsIterationAndRnormArgs) {
  SpanRing ring(64, 0);
  Tracer tracer(TraceContext{9, 0}, ring);
  tracer.checkpoint(3, 0.5);
  tracer.checkpoint(6, 0.25);
  const std::vector<TraceSpan> spans = ring.items();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer_iteration");
  ASSERT_EQ(spans[0].args.size(), 2u);
  EXPECT_EQ(spans[0].args[0].first, "iteration");
  EXPECT_DOUBLE_EQ(spans[0].args[0].second, 3.0);
  EXPECT_EQ(spans[0].args[1].first, "rnorm");
  EXPECT_DOUBLE_EQ(spans[0].args[1].second, 0.5);
  // Consecutive checkpoint spans tile the timeline: each starts where the
  // previous ended.
  EXPECT_DOUBLE_EQ(spans[1].start, spans[0].end);
}

// --- merge -----------------------------------------------------------------

// Fill a request trace with a fixed set of spans; `rank_first` flips which
// ring is populated first, modeling different rank execution interleavings.
RequestTrace fixed_trace(bool rank_first) {
  RequestTrace trace(TraceContext{1234, 0}, /*ranks=*/2, /*capacity=*/64);
  auto fill_rank0 = [&] {
    trace.rank_ring(0).push(make_span("rank_solve", (1ull << 32) + 1, 5,
                                      0.0, 1.0));
    trace.rank_ring(0).push(make_span("outer_iteration", (1ull << 32) + 2,
                                      (1ull << 32) + 1, 0.1, 0.4));
  };
  auto fill_rank1 = [&] {
    trace.rank_ring(1).push(make_span("rank_solve", (2ull << 32) + 1, 5,
                                      0.05, 0.95));
  };
  if (rank_first) {
    fill_rank0();
    fill_rank1();
  } else {
    fill_rank1();
    fill_rank0();
  }
  trace.service_ring().push(make_span("request", 5, 0, 0.0, 1.2));
  return trace;
}

TEST(MergeTest, DeterministicUnderRankInterleavings) {
  const json::Value a = merge_trace(fixed_trace(true));
  const json::Value b = merge_trace(fixed_trace(false));
  EXPECT_EQ(a.dump(2), b.dump(2));
}

TEST(MergeTest, AlignsClockOffsetsAcrossRings) {
  RequestTrace trace(TraceContext{77, 0}, /*ranks=*/2, /*capacity=*/16);
  trace.rank_ring(0).set_clock_offset(0.5);
  trace.rank_ring(1).set_clock_offset(2.0);
  // Both spans happened at the same ALIGNED instant, 2.5s after base, even
  // though their ring-relative times differ.
  trace.rank_ring(0).push(make_span("a", (1ull << 32) + 1, 0, 2.0, 2.25));
  trace.rank_ring(1).push(make_span("b", (2ull << 32) + 1, 0, 0.5, 0.75));
  const json::Value doc = merge_trace(trace);
  const json::Value& events = doc.at("traceEvents");
  double ts_a = -1.0, ts_b = -1.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& ev = events.at(i);
    if (!ev.contains("ts")) continue;
    if (ev.at("name").as_string() == "a") ts_a = ev.at("ts").as_number();
    if (ev.at("name").as_string() == "b") ts_b = ev.at("ts").as_number();
  }
  EXPECT_DOUBLE_EQ(ts_a, 2.5e6);
  EXPECT_DOUBLE_EQ(ts_b, 2.5e6);
}

TEST(MergeTest, EveryEventCarriesTheTraceIdAndUniqueSpanIds) {
  const json::Value doc = merge_trace(fixed_trace(true));
  EXPECT_DOUBLE_EQ(doc.at("trace_id").as_number(), 1234.0);
  const json::Value& events = doc.at("traceEvents");
  std::vector<double> ids;
  std::size_t x_events = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& ev = events.at(i);
    if (ev.at("ph").as_string() != "X") continue;
    ++x_events;
    const json::Value& args = ev.at("args");
    EXPECT_DOUBLE_EQ(args.at("trace_id").as_number(), 1234.0);
    ids.push_back(args.at("span_id").as_number());
  }
  EXPECT_EQ(x_events, 4u);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(MergeTest, NamesEveryRankTrackAndTheServiceTrack) {
  const json::Value doc = merge_trace(fixed_trace(true));
  const json::Value& events = doc.at("traceEvents");
  std::vector<std::string> names;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& ev = events.at(i);
    if (ev.at("ph").as_string() == "M" &&
        ev.at("name").as_string() == "thread_name")
      names.push_back(ev.at("args").at("name").as_string());
  }
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "rank 0");
  EXPECT_EQ(names[1], "rank 1");
  EXPECT_EQ(names[2], "service");
}

// --- sink ------------------------------------------------------------------

TEST(TraceSinkTest, WritesOneParsableFilePerRequest) {
  const std::string dir = temp_dir("pipescg_trace_sink_test");
  TraceSink sink(dir);
  const RequestTrace trace = fixed_trace(true);
  const std::string path = sink.write(trace);
  EXPECT_EQ(path, sink.path_for(1234));
  EXPECT_EQ(sink.written(), 1u);
  const json::Value doc = json::parse_file(path);
  EXPECT_DOUBLE_EQ(doc.at("trace_id").as_number(), 1234.0);
  std::filesystem::remove_all(dir);
}

// --- driver hooks ----------------------------------------------------------

TEST(HookTest, DetailCheckpointFeedsTheInstalledTracer) {
  SpanRing ring(64, 0);
  Tracer tracer(TraceContext{5, 0}, ring);
  krylov::SolveStats stats;
  krylov::SolverOptions opts;
  {
    Tracer::Install install(&tracer);
    EXPECT_TRUE(krylov::detail::checkpoint(stats, opts, 4, 0.125));
  }
  // Uninstalled: no further spans.
  EXPECT_TRUE(krylov::detail::checkpoint(stats, opts, 8, 0.0625));
  const std::vector<TraceSpan> spans = ring.items();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "outer_iteration");
  EXPECT_DOUBLE_EQ(spans[0].args[0].second, 4.0);
}

TEST(HookTest, RecoveryRollbackLeavesMarksOnTheTrace) {
  SpanRing ring(64, 0);
  Tracer tracer(TraceContext{6, 0}, ring);
  fault::RecoveryManager recovery(/*enabled=*/true, /*max_recoveries=*/4);
  std::vector<double> x = {1.0, 2.0, 3.0};
  recovery.save(x, 10, 0.5);
  x = {9.0, 9.0, 9.0};
  {
    Tracer::Install install(&tracer);
    EXPECT_TRUE(recovery.admit_failure());
    recovery.restore(x);
  }
  EXPECT_EQ(x[0], 1.0);
  const std::vector<TraceSpan> spans = ring.items();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "recovery_failure_admitted");
  EXPECT_EQ(spans[1].name, "recovery_rollback");
  EXPECT_DOUBLE_EQ(spans[1].args[0].second, 10.0);  // checkpoint iteration
  EXPECT_DOUBLE_EQ(spans[1].start, spans[1].end);   // instantaneous mark
}

}  // namespace
}  // namespace pipescg::obs::tracing
