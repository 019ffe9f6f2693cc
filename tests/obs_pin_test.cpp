// Output pins for the observation layer.
//
// Hand-built inputs (fixed span times, fixed histograms) are rendered
// through the three exporters an outside reader consumes, and each rendering
// is compared against a table generated from the exporters before they were
// restructured:
//
//   * profile_to_json, byte for byte;
//   * the Prometheus exposition of register_profile + register_session,
//     byte for byte;
//   * merge_trace of a request recording, compared as parsed JSON: object
//     keys are order-free inside a Chrome event, and a metadata event
//     without a "tid" reads as tid 0 (the trace-event format's default).
//
// A pin left empty in the table makes its test print the generated text.
// The reference check at the bottom runs a real 2-rank solve and holds the
// profiler's per-kind totals bitwise against a span scan kept here.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "pipescg/krylov/registry.hpp"
#include "pipescg/krylov/spmd_engine.hpp"
#include "pipescg/obs/json.hpp"
#include "pipescg/obs/metrics.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/obs/report.hpp"
#include "pipescg/obs/tracing.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/sparse/dist_csr.hpp"
#include "pipescg/sparse/stencil.hpp"

namespace pipescg::obs {
namespace {

#include "obs_pins.inc"

// Two ranks with spans in every bucket range the exporters touch, uneven
// per-rank work, and rank-dependent halo counters.
void fill_profile(SolveProfile& profile) {
  struct Rec {
    int rank;
    SpanKind kind;
    double start;
    double end;
  };
  const Rec recs[] = {
      {0, SpanKind::kSpmvLocal, 1.0e-6, 4.5e-6},
      {0, SpanKind::kDotLocal, 4.5e-6, 5.0e-6},
      {0, SpanKind::kAllreducePost, 5.0e-6, 5.25e-6},
      {0, SpanKind::kPcApply, 5.25e-6, 7.75e-6},
      {0, SpanKind::kAllreduceWaitNonblocking, 7.75e-6, 8.0e-6},
      {0, SpanKind::kHaloExpose, 8.0e-6, 9.0e-6},
      {0, SpanKind::kHaloPeerRead, 9.0e-6, 9.5e-6},
      {0, SpanKind::kHaloClose, 9.5e-6, 1.1e-5},
      {0, SpanKind::kSpmvLocal, 1.1e-5, 1.7e-5},
      {0, SpanKind::kAllreduceWaitBlocking, 1.7e-5, 3.2e-5},
      {1, SpanKind::kSpmvLocal, 1.5e-6, 7.0e-6},
      {1, SpanKind::kDotLocal, 7.0e-6, 7.3e-6},
      {1, SpanKind::kAllreducePost, 7.3e-6, 7.6e-6},
      {1, SpanKind::kAllreduceWaitNonblocking, 7.6e-6, 2.1e-5},
      {1, SpanKind::kHaloExpose, 2.1e-5, 2.2e-5},
      {1, SpanKind::kHaloClose, 2.2e-5, 2.35e-5},
      {1, SpanKind::kSpmvLocal, 2.35e-5, 3.0e-5},
      {1, SpanKind::kAllreduceWaitBlocking, 3.0e-5, 3.1e-5},
  };
  for (const Rec& r : recs) profile.rank(r.rank).record(r.kind, r.start, r.end);
  profile.rank(0).record_halo_exchange(3.0e-6);
  profile.rank(1).record_halo_exchange(2.5e-6);
  for (int r = 0; r < 2; ++r) {
    Profiler::Counters& c = profile.rank(r).counters();
    c.spmvs = 2;
    c.pc_applies = 1;
    c.allreduces = 2;
    c.iterations = 1;
    c.halo_epochs = 1;
    c.halo_messages = static_cast<std::size_t>(1 + r);
    c.halo_volume_doubles = static_cast<std::size_t>(12 + 4 * r);
    c.spmv_bytes = static_cast<std::size_t>(4096 + 512 * r);
  }
}

// Key-sorted copy of a JSON tree; metadata events gain the default tid 0.
json::Value canonical(const json::Value& v) {
  if (v.is_array()) {
    json::Value out = json::Value::array();
    for (std::size_t i = 0; i < v.size(); ++i) out.push_back(canonical(v.at(i)));
    return out;
  }
  if (!v.is_object()) return v;
  std::vector<std::pair<std::string, json::Value>> members = v.members();
  const bool metadata = v.contains("ph") && v.at("ph").as_string() == "M";
  if (metadata && !v.contains("tid")) members.emplace_back("tid", 0);
  std::sort(members.begin(), members.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  json::Value out = json::Value::object();
  for (const auto& [key, value] : members) out.set(key, canonical(value));
  return out;
}

void expect_pin(const char* name, const std::string& expected,
                const std::string& actual) {
  if (expected.empty()) {
    std::cout << "generated pin " << name << ":\nR\"pin(" << actual
              << ")pin\"\n";
    ADD_FAILURE() << "pin " << name << " is missing from obs_pins.inc";
    return;
  }
  EXPECT_EQ(expected, actual) << "pin " << name;
}

TEST(ObsPinTest, ProfileJsonBytes) {
  SolveProfile profile(2);
  fill_profile(profile);
  expect_pin("profile_json", kProfileJsonPin, profile_to_json(profile).dump(2));
}

TEST(ObsPinTest, PrometheusExpositionOfProfileAndSession) {
  SolveProfile profile(2);
  fill_profile(profile);
  LatencyHistogram solve_latency;
  for (const double s : {2.0e-3, 2.5e-3, 3.0e-3, 4.0e-3, 1.2e-2})
    solve_latency.add(s);
  LatencyHistogram queue_latency;
  for (const double s : {0.0, 1.0e-6, 5.0e-5, 2.0e-4}) queue_latency.add(s);

  metrics::SessionSnapshot snap;
  snap.ranks = 2;
  snap.solves = 5;
  snap.team_runs = 3;
  snap.setup_seconds = 0.0125;
  snap.partition_builds = 1;
  snap.dist_builds = 2;
  snap.mpk_builds = 2;
  snap.pc_builds = 2;
  snap.team_spawns = 1;
  snap.warm_hits = 5;
  snap.expired = 1;
  snap.solve_latency = &solve_latency;
  snap.queue_latency = &queue_latency;

  metrics::Registry registry;
  const metrics::Labels base = {{"method", "pipe-pscg"}, {"s", "3"}};
  metrics::register_profile(registry, profile, base);
  metrics::register_session(registry, snap, {{"session", "pin"}});
  expect_pin("prometheus", kPrometheusPin, registry.prometheus());
}

TEST(ObsPinTest, MergedTraceOfARequest) {
  SolveProfile kernels(2);
  fill_profile(kernels);
  // Capacity 6 makes both rank tracks evict their oldest spans.  Rank span
  // times are where the per-track clock skews of the pinned rendering (+0.5
  // and -0.25 us) left them: a scope span at t + skew, a kernel span taken
  // into and back out of its track's clock as (t - skew) + skew.
  SolveProfile trace(2, /*capacity=*/6, tracing::TraceContext{7, 0});
  const double skews[] = {5.0e-7, -2.5e-7};
  Profiler& svc = trace.service();
  const std::uint64_t root = svc.mint();
  for (int r = 0; r < 2; ++r) {
    Profiler& track = trace.rank(r);
    const double skew = skews[r];
    const Span rank_solve{"rank_solve", 0.0 + skew, 3.5e-5 + skew,
                          track.mint(), root};
    Span outer{"outer_iteration", 2.0e-6 + skew, 3.0e-5 + skew, track.mint(),
               rank_solve.span_id};
    outer.args = {{{"iteration", 3.0}, {"rnorm", 0.125}}};
    track.push(rank_solve);
    track.push(outer);
    for (Span s : kernels.rank(r).spans()) {
      s.start = (s.start - skew) + skew;
      s.end = (s.end - skew) + skew;
      s.span_id = track.mint();
      s.parent_span_id = rank_solve.span_id;
      track.push(s);
    }
  }

  Span queue_wait{"queue_wait", 0.0, 1.0e-6, svc.mint(), root};
  queue_wait.args = {{{"column", 0.0}, {"column_trace_id", 7.0}}};
  svc.push(queue_wait);
  Span request{"request", 0.0, 4.0e-5, root, 0};
  request.args = {{{"columns", 1.0}, {"failed", 0.0}}};
  svc.push(request);

  EXPECT_EQ(trace.rank(0).ring().dropped(), 6u);
  const std::string actual = canonical(tracing::merge_trace(trace)).dump(2);
  const std::string expected =
      std::string(kMergedTracePin).empty()
          ? std::string()
          : canonical(json::parse(kMergedTracePin)).dump(2);
  expect_pin("merged_trace", expected, actual);
}

// Per-kind totals against a span scan kept by the test: same additions in
// the same order, so equality is bitwise, on every rank and kind.
TEST(ObsPinTest, KindTotalsEqualASpanScanBitwise) {
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), 12, 12, "p");
  krylov::SolverOptions opts;
  opts.rtol = 1e-8;
  opts.max_iterations = 2000;
  SolveProfile profile(2);
  const sparse::Partition part(a.rows(), 2);
  par::Team::run(2, [&](par::Comm& comm) {
    const sparse::DistCsr dist(a, part, comm.rank());
    krylov::SpmdEngine engine(comm, dist, nullptr,
                              &profile.rank(comm.rank()));
    krylov::Vec ones = engine.new_vec();
    for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
    krylov::Vec b = engine.new_vec();
    engine.apply_op(ones, b);
    krylov::Vec x = engine.new_vec();
    krylov::make_solver("pipe-pscg")->solve(engine, b, x, opts);
  });
  for (int r = 0; r < profile.ranks(); ++r) {
    const Profiler& p = profile.rank(r);
    ASSERT_FALSE(p.spans().empty());
    for (std::size_t k = 0; k < kSpanKindCount; ++k) {
      const SpanKind kind = static_cast<SpanKind>(k);
      double seconds = 0.0;
      std::size_t count = 0;
      for (const Span& s : p.spans()) {
        if (s.kind != kind) continue;
        seconds += s.end - s.start;
        ++count;
      }
      const Profiler::KindTotal t = p.total(kind);
      EXPECT_EQ(t.count, count) << to_string(kind) << " rank " << r;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(t.seconds),
                std::bit_cast<std::uint64_t>(seconds))
          << to_string(kind) << " rank " << r;
    }
  }
}

}  // namespace
}  // namespace pipescg::obs
