// Request-scoped tracing tests: the recorder's ring eviction, id minting and
// scope nesting, the rendering of a recording as one request trace
// (deterministic ordering under rank interleavings, id propagation), the
// trace sink, and the driver-side checkpoint/recovery hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "pipescg/fault/recovery.hpp"
#include "pipescg/krylov/solver.hpp"
#include "pipescg/obs/json.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/obs/tracing.hpp"

namespace pipescg::obs::tracing {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

Profiler recorder(int rank, std::size_t capacity, std::uint64_t parent = 0) {
  return Profiler(rank, Profiler::Clock::now(), capacity, parent);
}

// --- recorder ----------------------------------------------------------------

TEST(RecorderTest, EvictionKeepsNewestSpans) {
  Profiler p = recorder(0, 4);
  const char* names[] = {"s0", "s1", "s2", "s3", "s4", "s5", "s6"};
  for (int i = 0; i < 7; ++i)
    p.record(names[i], static_cast<double>(i), static_cast<double>(i) + 0.5);
  EXPECT_EQ(p.ring().size(), 4u);
  EXPECT_EQ(p.ring().dropped(), 3u);
  EXPECT_STREQ(p.ring().back().name, "s6");
  const std::vector<Span> spans = p.spans();
  ASSERT_EQ(spans.size(), 4u);
  // The oldest three were evicted; retained spans keep close order.
  for (int i = 0; i < 4; ++i)
    EXPECT_STREQ(spans[static_cast<std::size_t>(i)].name, names[i + 3]);
}

TEST(RecorderTest, MintedIdsEncodeTheTrackAndNeverCollide) {
  Profiler rank0 = recorder(0, 8);
  Profiler rank1 = recorder(1, 8);
  const std::uint64_t a = rank0.mint();
  const std::uint64_t b = rank0.mint();
  const std::uint64_t c = rank1.mint();
  EXPECT_EQ(a, (std::uint64_t{1} << 32) + 1);
  EXPECT_EQ(b, (std::uint64_t{1} << 32) + 2);
  EXPECT_EQ(c, (std::uint64_t{2} << 32) + 1);
  EXPECT_NE(a, c);
}

TEST(RecorderTest, ScopesNestAndParentCorrectly) {
  Profiler p = recorder(3, 64, /*parent=*/7);
  EXPECT_EQ(p.current_parent(), 7u);
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    SpanScope outer(&p, "outer");
    outer_id = outer.span_id();
    EXPECT_EQ(p.current_parent(), outer_id);
    {
      SpanScope inner(&p, "inner");
      inner_id = inner.span_id();
      EXPECT_EQ(p.current_parent(), inner_id);
      { SpanScope kernel(&p, SpanKind::kDotLocal); }
      EXPECT_EQ(p.current_parent(), inner_id);  // kernel scopes never nest
    }
    EXPECT_EQ(p.current_parent(), outer_id);
  }
  EXPECT_EQ(p.current_parent(), 7u);
  const std::vector<Span> spans = p.spans();
  ASSERT_EQ(spans.size(), 3u);  // in close order
  EXPECT_STREQ(spans[0].name, "dot_local");
  EXPECT_EQ(spans[0].kind, SpanKind::kDotLocal);
  EXPECT_EQ(spans[0].parent_span_id, inner_id);
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_FALSE(spans[1].is_kernel());
  EXPECT_EQ(spans[1].parent_span_id, outer_id);
  EXPECT_STREQ(spans[2].name, "outer");
  EXPECT_EQ(spans[2].parent_span_id, 7u);
  EXPECT_LE(spans[2].start, spans[1].start);
  EXPECT_GE(spans[2].end, spans[1].end);
  EXPECT_EQ(p.total(SpanKind::kDotLocal).count, 1u);
}

TEST(RecorderTest, NullScopesAreNoOps) {
  SpanScope scope(nullptr, "nothing");
  scope.arg("ignored", 1.0);
  EXPECT_EQ(scope.span_id(), 0u);
  SpanScope kernel(nullptr, SpanKind::kSpmvLocal);
}

TEST(RecorderTest, CheckpointRecordsIterationAndRnormArgs) {
  Profiler p = recorder(0, 64);
  p.checkpoint(3, 0.5);
  p.checkpoint(6, 0.25);
  const std::vector<Span> spans = p.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "outer_iteration");
  EXPECT_STREQ(spans[0].args[0].key, "iteration");
  EXPECT_DOUBLE_EQ(spans[0].args[0].value, 3.0);
  EXPECT_STREQ(spans[0].args[1].key, "rnorm");
  EXPECT_DOUBLE_EQ(spans[0].args[1].value, 0.5);
  EXPECT_EQ(spans[0].args[2].key, nullptr);
  // Consecutive checkpoint spans tile the timeline: each starts where the
  // previous ended.
  EXPECT_DOUBLE_EQ(spans[1].start, spans[0].end);
}

// A request that overflows its tracks drops spans in the order they closed.
// Parents close after their children, so the root survives and no retained
// span loses its parent.
TEST(RecorderTest, OverflowKeepsTheRootAndOrphansNothing) {
  SolveProfile rec(1, /*capacity=*/6, TraceContext{9, 0});
  Profiler& svc = rec.service();
  std::uint64_t root = 0;
  {
    SpanScope request(&svc, "request", 0.0);
    root = request.span_id();
    rec.rank(0).nest_under(root);
    Profiler& p = rec.rank(0);
    const SpanScope rank_solve(&p, "rank_solve");
    { const SpanScope scatter(&p, "scatter"); }
    const SpanScope solve(&p, "solve");
    for (int it = 0; it < 3; ++it) {
      for (int k = 0; k < 3; ++k) {
        const SpanScope spmv(&p, SpanKind::kSpmvLocal);
      }
      p.checkpoint(static_cast<std::uint64_t>(it), 1.0);
    }
  }
  const Profiler& p = rec.rank(0);
  EXPECT_EQ(p.ring().size(), 6u);
  // 15 recorded: scatter, solve's 12 children, solve and rank_solve.
  EXPECT_EQ(p.ring().dropped(), 9u);
  std::set<std::uint64_t> ids = {root};
  for (const Span& s : p.spans()) ids.insert(s.span_id);
  bool kept_rank_solve = false;
  for (const Span& s : p.spans()) {
    EXPECT_TRUE(ids.count(s.parent_span_id)) << s.name << " is orphaned";
    if (std::strcmp(s.name, "rank_solve") == 0) {
      kept_rank_solve = true;
      EXPECT_EQ(s.parent_span_id, root);
    }
  }
  EXPECT_TRUE(kept_rank_solve);

  // The rendered trace keeps the service-track root too.
  const json::Value doc = merge_trace(rec);
  const json::Value& events = doc.at("traceEvents");
  std::set<double> present = {0.0};
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events.at(i).at("ph").as_string() == "X")
      present.insert(events.at(i).at("args").at("span_id").as_number());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& ev = events.at(i);
    if (ev.at("ph").as_string() != "X") continue;
    EXPECT_TRUE(present.count(ev.at("args").at("parent_span_id").as_number()))
        << ev.at("name").as_string() << " is orphaned";
  }
}

// --- merge -----------------------------------------------------------------

Span make_span(const char* name, std::uint64_t id, std::uint64_t parent,
               double start, double end) {
  return Span{name, start, end, id, parent};
}

// Fill a request recording with a fixed set of spans; `rank_first` flips
// which track is populated first, modeling different rank execution
// interleavings.
SolveProfile fixed_trace(bool rank_first) {
  SolveProfile trace(/*ranks=*/2, /*capacity=*/64, TraceContext{1234, 0});
  auto fill_rank0 = [&] {
    trace.rank(0).push(make_span("rank_solve", (1ull << 32) + 1, 5, 0.0, 1.0));
    trace.rank(0).push(make_span("outer_iteration", (1ull << 32) + 2,
                                 (1ull << 32) + 1, 0.1, 0.4));
  };
  auto fill_rank1 = [&] {
    trace.rank(1).push(
        make_span("rank_solve", (2ull << 32) + 1, 5, 0.05, 0.95));
  };
  if (rank_first) {
    fill_rank0();
    fill_rank1();
  } else {
    fill_rank1();
    fill_rank0();
  }
  trace.service().push(make_span("request", 5, 0, 0.0, 1.2));
  return trace;
}

TEST(MergeTest, DeterministicUnderRankInterleavings) {
  const json::Value a = merge_trace(fixed_trace(true));
  const json::Value b = merge_trace(fixed_trace(false));
  EXPECT_EQ(a.dump(2), b.dump(2));
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
    EXPECT_EQ(ev.at("cat").as_string(), "request");
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
  const SolveProfile trace = fixed_trace(true);
  const std::string path = sink.write(trace);
  EXPECT_EQ(path, sink.path_for(1234));
  EXPECT_EQ(sink.written(), 1u);
  const json::Value doc = json::parse_file(path);
  EXPECT_DOUBLE_EQ(doc.at("trace_id").as_number(), 1234.0);
  std::filesystem::remove_all(dir);
}

// --- driver hooks ----------------------------------------------------------

TEST(HookTest, DetailCheckpointFeedsTheInstalledRecorder) {
  Profiler p = recorder(0, 64);
  krylov::SolveStats stats;
  krylov::SolverOptions opts;
  {
    Profiler::Install install(&p);
    EXPECT_TRUE(krylov::detail::checkpoint(stats, opts, 4, 0.125));
  }
  // Uninstalled: no further spans.
  EXPECT_TRUE(krylov::detail::checkpoint(stats, opts, 8, 0.0625));
  const std::vector<Span> spans = p.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "outer_iteration");
  EXPECT_DOUBLE_EQ(spans[0].args[0].value, 4.0);
}

TEST(HookTest, RecoveryRollbackLeavesMarksOnTheTrace) {
  Profiler p = recorder(0, 64);
  fault::RecoveryManager recovery(/*enabled=*/true, /*max_recoveries=*/4);
  std::vector<double> x = {1.0, 2.0, 3.0};
  recovery.save(x, 10, 0.5);
  x = {9.0, 9.0, 9.0};
  {
    Profiler::Install install(&p);
    EXPECT_TRUE(recovery.admit_failure());
    recovery.restore(x);
  }
  EXPECT_EQ(x[0], 1.0);
  const std::vector<Span> spans = p.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "recovery_failure_admitted");
  EXPECT_STREQ(spans[1].name, "recovery_rollback");
  EXPECT_DOUBLE_EQ(spans[1].args[0].value, 10.0);  // checkpoint iteration
  EXPECT_DOUBLE_EQ(spans[1].start, spans[1].end);  // instantaneous mark
}

}  // namespace
}  // namespace pipescg::obs::tracing
