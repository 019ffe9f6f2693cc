// Tests for the machine model, event traces, timeline replay, and the
// Table-I cost formulas.
#include <gtest/gtest.h>

#include <sstream>

#include "pipescg/base/error.hpp"
#include "pipescg/sim/auto_tune.hpp"
#include "pipescg/sim/cost_table.hpp"
#include "pipescg/sim/machine_model.hpp"
#include "pipescg/sim/timeline.hpp"
#include "pipescg/sim/trace.hpp"

namespace pipescg::sim {
namespace {

sparse::OperatorStats grid3d_stats(std::size_t n, std::size_t nnz_per_row,
                                   int halo_width) {
  sparse::OperatorStats st;
  st.rows = n * n * n;
  st.nnz = st.rows * nnz_per_row;
  st.kind = sparse::GridKind::kGrid3d;
  st.nx = st.ny = st.nz = n;
  st.halo_width = halo_width;
  return st;
}

TEST(MachineModelTest, AllreduceGrowsWithRanks) {
  const MachineModel m = MachineModel::cray_xc40_like();
  double prev = 0.0;
  for (int nodes : {1, 10, 40, 80, 120}) {
    const double g = m.allreduce_seconds(m.ranks_for_nodes(nodes), 16);
    EXPECT_GT(g, prev);
    prev = g;
  }
  EXPECT_EQ(m.allreduce_seconds(1, 16), 0.0);
}

TEST(MachineModelTest, AllreduceGrowsWithPayload) {
  const MachineModel m;
  EXPECT_GT(m.allreduce_seconds(960, 4096), m.allreduce_seconds(960, 4));
}

TEST(MachineModelTest, NonBlockingPenaltyScalesIallreduce) {
  MachineModel m;
  // Default calibration: no end-to-end penalty.
  EXPECT_NEAR(m.iallreduce_seconds(960, 16), m.allreduce_seconds(960, 16),
              1e-15);
  // The knob scales the non-blocking latency only.
  m.nonblocking_penalty = 2.5;
  EXPECT_NEAR(m.iallreduce_seconds(960, 16) / m.allreduce_seconds(960, 16),
              2.5, 1e-12);
}

TEST(MachineModelTest, ComputeScalesDownWithRanks) {
  const MachineModel m;
  const double t1 = m.compute_seconds(1e9, 1e10, 24);
  const double t10 = m.compute_seconds(1e9, 1e10, 240);
  EXPECT_GT(t1, t10);
  EXPECT_NEAR(t1 / t10, 10.0, 4.0);  // roughly linear, modulo cache boost
}

TEST(MachineModelTest, SpmvIncludesHaloCostAtScale) {
  const MachineModel m;
  const sparse::OperatorStats st = grid3d_stats(100, 125, 2);
  const double one_rank = m.spmv_seconds(st, 1);
  EXPECT_GT(one_rank, 0.0);
  // At very large rank counts the per-rank compute vanishes but the halo
  // latency floor remains.
  const double many = m.spmv_seconds(st, 100000);
  EXPECT_GT(many, 2.0 * m.neigh_latency * 0.99);
}

TEST(TimelineTest, ComputeEventsAccumulate) {
  const MachineModel m;
  EventTrace trace;
  Event e;
  e.kind = EventKind::kCompute;
  e.flops = 1e9;
  e.bytes = 0.0;
  trace.record(e);
  trace.record(e);
  const Timeline timeline(m);
  const TimelineResult r = timeline.evaluate(trace, 1);
  EXPECT_NEAR(r.seconds, 2.0 * 1e9 / m.flop_rate, 1e-12);
  EXPECT_NEAR(r.compute_seconds, r.seconds, 1e-12);
}

TEST(TimelineTest, BlockingAllreduceAddsFullLatency) {
  const MachineModel m;
  EventTrace trace;
  Event post;
  post.kind = EventKind::kAllreducePost;
  post.id = 0;
  post.bytes = 8;   // doubles
  post.value = 1.0;  // blocking collective
  trace.record(post);
  Event wait;
  wait.kind = EventKind::kAllreduceWait;
  wait.id = 0;
  trace.record(wait);
  const Timeline timeline(m);
  const int ranks = 960;
  const TimelineResult r = timeline.evaluate(trace, ranks);
  EXPECT_NEAR(r.seconds,
              m.allreduce_seconds(ranks, 8) *
                  (1.0 /*wait*/),
              1e-9);
  EXPECT_GT(r.allreduce_wait_seconds, 0.0);
}

TEST(TimelineTest, OverlappedComputeHidesAllreduce) {
  const MachineModel m;
  const int ranks = 960;
  const double g = m.iallreduce_seconds(ranks, 8);  // non-blocking post

  // Post, then compute for 10x the allreduce latency, then wait: the wait
  // should cost (almost) nothing.
  EventTrace trace;
  Event post;
  post.kind = EventKind::kAllreducePost;
  post.id = 0;
  post.bytes = 8;
  trace.record(post);
  Event big;
  big.kind = EventKind::kCompute;
  big.flops = 10.0 * g * m.flop_rate * ranks;
  trace.record(big);
  Event wait;
  wait.kind = EventKind::kAllreduceWait;
  wait.id = 0;
  trace.record(wait);

  const Timeline timeline(m);
  const TimelineResult r = timeline.evaluate(trace, ranks);
  EXPECT_NEAR(r.allreduce_wait_seconds, 0.0, 1e-12);
  // Total = unoverlappable fraction + the compute block.
  EXPECT_NEAR(r.seconds, m.unoverlappable_fraction * g + 10.0 * g, 1e-9);
}

TEST(TimelineTest, WaitWithoutPostThrows) {
  EventTrace trace;
  Event wait;
  wait.kind = EventKind::kAllreduceWait;
  wait.id = 5;
  trace.record(wait);
  const Timeline timeline{MachineModel{}};
  EXPECT_THROW(timeline.evaluate(trace, 4), Error);
}

TEST(TimelineTest, MarksCarryTimeIterationResidual) {
  EventTrace trace;
  Event c;
  c.kind = EventKind::kCompute;
  c.flops = 1e9;
  trace.record(c);
  Event mark;
  mark.kind = EventKind::kIterationMark;
  mark.id = 3;
  mark.value = 0.25;
  trace.record(mark);
  const Timeline timeline{MachineModel{}};
  const TimelineResult r = timeline.evaluate(trace, 1);
  ASSERT_EQ(r.marks.size(), 1u);
  EXPECT_EQ(r.marks[0].iteration, 3u);
  EXPECT_DOUBLE_EQ(r.marks[0].residual, 0.25);
  EXPECT_GT(r.marks[0].time, 0.0);
}

TEST(TraceTest, CountersTallyEvents) {
  EventTrace trace;
  const std::uint32_t op = trace.register_operator(grid3d_stats(4, 7, 1));
  PcCostProfile pc;
  pc.name = "jacobi";
  const std::uint32_t pci = trace.register_pc(pc);
  for (int i = 0; i < 3; ++i) {
    Event e;
    e.kind = EventKind::kSpmv;
    e.index = op;
    trace.record(e);
  }
  Event p;
  p.kind = EventKind::kPcApply;
  p.index = pci;
  trace.record(p);
  Event post;
  post.kind = EventKind::kAllreducePost;
  trace.record(post);
  Event comp;
  comp.kind = EventKind::kCompute;
  comp.flops = 123.0;
  trace.record(comp);
  Event mark;
  mark.kind = EventKind::kIterationMark;
  mark.id = 5;
  trace.record(mark);

  const EventTrace::Counters c = trace.counters();
  EXPECT_EQ(c.spmvs, 3u);
  EXPECT_EQ(c.pc_applies, 1u);
  EXPECT_EQ(c.allreduces, 1u);
  EXPECT_EQ(c.iterations, 6u);
  EXPECT_DOUBLE_EQ(c.vector_flops, 123.0);
}

TEST(CostTableTest, TableMatchesPaperAtS3) {
  // Spot-check the published Table I values for s = 3.
  EXPECT_DOUBLE_EQ(cost_row("pcg").allreduces(3), 9.0);
  EXPECT_DOUBLE_EQ(cost_row("pcg").flops(3), 36.0);
  EXPECT_DOUBLE_EQ(cost_row("pcg").memory(3), 4.0);
  EXPECT_DOUBLE_EQ(cost_row("pipecg").flops(3), 66.0);
  EXPECT_DOUBLE_EQ(cost_row("pipelcg").flops(3), 6.0 * 9 + 14 * 3);
  EXPECT_DOUBLE_EQ(cost_row("pipecg3").allreduces(3), 2.0);
  EXPECT_DOUBLE_EQ(cost_row("pipecg3").flops(3), 180.0);
  EXPECT_DOUBLE_EQ(cost_row("pipecg-oati").flops(3), 160.0);
  EXPECT_DOUBLE_EQ(cost_row("pscg").allreduces(3), 1.0);
  EXPECT_DOUBLE_EQ(cost_row("pscg").flops(3), 2.0 * 9 + 4 * 3 + 2);
  EXPECT_DOUBLE_EQ(cost_row("pscg").memory(3), 8.0);
  EXPECT_DOUBLE_EQ(cost_row("pipe-pscg").flops(3),
                   4.0 * 27 + 12.0 * 9 + 2.0 * 3 + 5);
  EXPECT_DOUBLE_EQ(cost_row("pipe-pscg").memory(3),
                   4.0 * 9 + 12.0 * 3 + 5);
}

TEST(CostTableTest, TimeFormulasCaptureOverlapRegimes) {
  const int s = 3;
  const double pc = 1.0, spmv = 2.0;
  // Compute-dominated: G small.
  {
    const double g = 0.1;
    EXPECT_DOUBLE_EQ(cost_row("pcg").time(s, g, pc, spmv),
                     s * (3 * g + pc + spmv));
    EXPECT_DOUBLE_EQ(cost_row("pipecg").time(s, g, pc, spmv), s * (pc + spmv));
    EXPECT_DOUBLE_EQ(cost_row("pipe-pscg").time(s, g, pc, spmv),
                     s * (pc + spmv));
  }
  // Allreduce-dominated: G huge -- PIPE-PsCG pays one G per s iterations,
  // PIPECG pays s, PCG pays 3s.
  {
    const double g = 1000.0;
    const double pipe_pscg = cost_row("pipe-pscg").time(s, g, pc, spmv);
    const double pipecg = cost_row("pipecg").time(s, g, pc, spmv);
    const double pcg = cost_row("pcg").time(s, g, pc, spmv);
    EXPECT_NEAR(pipecg / pipe_pscg, 3.0, 0.1);
    EXPECT_NEAR(pcg / pipe_pscg, 9.0, 0.2);
  }
}

TEST(AutoTuneTest, LargerSWinsOnlyAtScale) {
  // Fig. 3's finding, derived from the model: at small node counts small s
  // is best (FLOP overhead dominates); at large node counts the recommended
  // s grows (allreduce amortization pays).
  const MachineModel m = MachineModel::cray_xc40_like();
  const sparse::OperatorStats op = grid3d_stats(100, 125, 2);
  PcCostProfile pc;  // ~jacobi
  pc.flops = static_cast<double>(op.rows);
  pc.bytes = 24.0 * static_cast<double>(op.rows);
  pc.stats = op;

  const SRecommendation small = suggest_s(m, op, pc, m.ranks_for_nodes(2));
  const SRecommendation large = suggest_s(m, op, pc, m.ranks_for_nodes(140));
  EXPECT_LE(small.s, large.s);
  EXPECT_EQ(small.per_s_seconds.size(), 5u);
  // Per-iteration cost curves must be positive and finite.
  for (double t : large.per_s_seconds) EXPECT_GT(t, 0.0);
}

TEST(AutoTuneTest, PerIterationCostMatchesTimeFormulaShape) {
  const MachineModel m;
  const sparse::OperatorStats op = grid3d_stats(64, 125, 2);
  PcCostProfile pc;
  pc.stats = op;
  const int ranks = m.ranks_for_nodes(120);
  // Higher s divides the (dominant) allreduce across more iterations, so in
  // the G-dominated regime per-iteration cost must not increase much from
  // s = 1 to s = 3.
  const double t1 = pipe_pscg_seconds_per_iteration(m, op, pc, ranks, 1);
  const double t3 = pipe_pscg_seconds_per_iteration(m, op, pc, ranks, 3);
  EXPECT_LT(t3, t1);
  EXPECT_THROW(pipe_pscg_seconds_per_iteration(m, op, pc, ranks, 0), Error);
}

TEST(CostTableTest, UnknownMethodThrows) {
  EXPECT_THROW(cost_row("gmres"), Error);
}

TEST(CostTableTest, PrintsAllRows) {
  std::ostringstream os;
  print_cost_table(os, 3, 1e-4, 1e-5, 5e-5);
  const std::string s = os.str();
  for (const char* name : {"pcg", "pipecg", "pipelcg", "pipecg3",
                           "pipecg-oati", "pscg", "pipe-pscg"})
    EXPECT_NE(s.find(name), std::string::npos) << name;
}

}  // namespace
}  // namespace pipescg::sim
