// Service-layer certification: the warm Session must be a pure cache (warm
// solves bitwise identical to cold ones, setup counters frozen after
// construction), the batched multi-RHS driver must be column-wise identical
// to independent solves, the persistent team must survive reuse AND a
// failed body, and the admission queue must batch without reordering.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "pipescg/base/error.hpp"
#include "pipescg/fault/spec.hpp"
#include "pipescg/obs/anomaly.hpp"
#include "pipescg/obs/json.hpp"
#include "pipescg/obs/metrics.hpp"
#include "pipescg/obs/tracing.hpp"
#include "pipescg/krylov/multi_rhs.hpp"
#include "pipescg/krylov/registry.hpp"
#include "pipescg/krylov/serial_engine.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/precond/jacobi.hpp"
#include "pipescg/service/queue.hpp"
#include "pipescg/service/session.hpp"
#include "pipescg/service/solve_context.hpp"
#include "pipescg/sparse/surrogates.hpp"

namespace pipescg::service {
namespace {

sparse::CsrMatrix test_matrix(std::size_t n = 14) {
  return sparse::make_thermal2_like(n, n);
}

std::vector<double> test_rhs(const sparse::CsrMatrix& a, std::size_t j) {
  std::vector<double> xstar(a.rows());
  for (std::size_t i = 0; i < xstar.size(); ++i)
    xstar[i] = 1.0 + 0.5 * std::sin(static_cast<double>(i + 5 * j + 1));
  std::vector<double> b(a.rows(), 0.0);
  a.apply(xstar, b);
  return b;
}

krylov::SolverOptions test_opts() {
  krylov::SolverOptions opts;
  opts.rtol = 1e-8;
  opts.s = 3;
  return opts;
}

TEST(PersistentTeamTest, ReusesRanksAcrossRuns) {
  par::PersistentTeam team(3);
  EXPECT_EQ(team.size(), 3);
  std::atomic<int> visits{0};
  for (int run = 0; run < 4; ++run) {
    team.run([&](par::Comm& comm) {
      EXPECT_EQ(comm.size(), 3);
      // Collectives must work across repeated bodies on the SAME comms
      // (op-id lockstep persists between runs).
      const double v[] = {1.0 + comm.rank()};
      double sum[] = {0.0};
      comm.allreduce_sum(v, sum);
      EXPECT_DOUBLE_EQ(sum[0], 6.0);
      ++visits;
    });
  }
  EXPECT_EQ(team.runs(), 4u);
  EXPECT_EQ(visits.load(), 12);
}

TEST(PersistentTeamTest, RecoversAfterFailedBody) {
  par::PersistentTeam team(2);
  EXPECT_THROW(team.run([&](par::Comm& comm) {
                 if (comm.rank() == 1)
                   throw std::runtime_error("injected body failure");
                 // Rank 0 proceeds without collectives so the team joins.
               }),
               std::runtime_error);
  // A failed body may have broken collective lockstep; the team must have
  // recovered and serve subsequent runs.
  std::atomic<int> visits{0};
  team.run([&](par::Comm& comm) {
    const double v[] = {static_cast<double>(comm.rank())};
    double sum[] = {0.0};
    comm.allreduce_sum(v, sum);
    EXPECT_DOUBLE_EQ(sum[0], 1.0);
    ++visits;
  });
  EXPECT_EQ(visits.load(), 2);
}

TEST(SessionTest, WarmSolveBitwiseIdenticalToCold) {
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  const krylov::SolverOptions opts = test_opts();
  const std::vector<double> b = test_rhs(a, 0);

  // Cold: a fresh session, first solve.
  Session cold(a, config);
  SolveContext cold_ctx("scg-sspmv", b, opts);
  cold.solve(cold_ctx);
  ASSERT_EQ(cold_ctx.state(), JobState::kDone);
  ASSERT_TRUE(cold_ctx.converged());

  // Warm: the same session after unrelated traffic serves the same request.
  Session warm(a, config);
  SolveContext filler("scg-sspmv", test_rhs(a, 1), opts);
  warm.solve(filler);
  ASSERT_TRUE(filler.converged());
  SolveContext warm_ctx("scg-sspmv", b, opts);
  warm.solve(warm_ctx);
  ASSERT_TRUE(warm_ctx.converged());

  EXPECT_EQ(warm_ctx.stats().iterations, cold_ctx.stats().iterations);
  ASSERT_EQ(warm_ctx.x().size(), cold_ctx.x().size());
  for (std::size_t i = 0; i < warm_ctx.x().size(); ++i)
    EXPECT_EQ(warm_ctx.x()[i], cold_ctx.x()[i]) << "entry " << i;
}

TEST(SessionTest, SetupCountersFreezeAfterConstruction) {
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 3;
  config.mpk = true;
  Session session(a, config);

  const SetupCounters before = session.setup_counters();
  EXPECT_EQ(before.partition_builds, 1u);
  EXPECT_EQ(before.dist_builds, 3u);
  EXPECT_EQ(before.mpk_builds, 3u);
  EXPECT_EQ(before.pc_builds, 3u);
  EXPECT_EQ(before.team_spawns, 1u);
  EXPECT_EQ(before.warm_hits, 0u);
  EXPECT_GT(session.setup_seconds(), 0.0);

  for (std::size_t j = 0; j < 3; ++j) {
    SolveContext ctx("scg-sspmv", test_rhs(a, j), test_opts());
    session.solve(ctx);
    ASSERT_TRUE(ctx.converged());
  }

  // The cache contract: warm solves perform ZERO re-partitioning,
  // re-distribution, re-closure, or re-factorization, and never respawn
  // the team.
  const SetupCounters after = session.setup_counters();
  EXPECT_EQ(after.partition_builds, before.partition_builds);
  EXPECT_EQ(after.dist_builds, before.dist_builds);
  EXPECT_EQ(after.mpk_builds, before.mpk_builds);
  EXPECT_EQ(after.pc_builds, before.pc_builds);
  EXPECT_EQ(after.team_spawns, before.team_spawns);
  EXPECT_EQ(after.warm_hits, 3u);
  EXPECT_EQ(session.solves(), 3u);
  EXPECT_EQ(session.team_runs(), 3u);
}

TEST(SessionTest, NonBatchableMethodRunsOnWarmTeam) {
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);
  krylov::SolverOptions opts = test_opts();
  opts.replacement_period = 4;
  SolveContext ctx("pipe-pscg", test_rhs(a, 0), opts);
  session.solve(ctx);
  ASSERT_EQ(ctx.state(), JobState::kDone);
  EXPECT_TRUE(ctx.converged());
  EXPECT_EQ(ctx.stats().method, "pipe-pscg");
}

TEST(SessionTest, FailedJobLeavesSessionUsable) {
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);
  SolveContext bad("no-such-method", test_rhs(a, 0), test_opts());
  session.solve(bad);
  EXPECT_EQ(bad.state(), JobState::kFailed);
  EXPECT_FALSE(bad.error().empty());

  SolveContext good("scg-sspmv", test_rhs(a, 1), test_opts());
  session.solve(good);
  EXPECT_EQ(good.state(), JobState::kDone);
  EXPECT_TRUE(good.converged());
}

TEST(SessionTest, StepLimitedContextResumesToConvergence) {
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);
  const krylov::SolverOptions opts = test_opts();

  SolveContext limited("scg-sspmv", test_rhs(a, 0), opts);
  limited.set_step_limit(9);  // 3 outer iterations at s = 3 per submission
  std::size_t guard = 0;
  while (!limited.converged() && ++guard < 200) {
    session.solve(limited);
    ASSERT_EQ(limited.state(), JobState::kDone);
    ASSERT_LE(limited.stats().iterations, 9u);
  }
  EXPECT_TRUE(limited.converged());
  EXPECT_GT(limited.submissions(), 1u);

  // The resumed trajectory is a restarted CG, so iteration counts may
  // differ from one uninterrupted solve -- but the solution must satisfy
  // the same tolerance against the true residual.
  std::vector<double> r(a.rows(), 0.0);
  a.apply(limited.x(), r);
  double rnorm = 0.0;
  double bnorm = 0.0;
  const std::vector<double> b = test_rhs(a, 0);
  for (std::size_t i = 0; i < r.size(); ++i) {
    const double ri = b[i] - r[i];
    rnorm += ri * ri;
    bnorm += b[i] * b[i];
  }
  EXPECT_LT(std::sqrt(rnorm), 10.0 * opts.rtol * std::sqrt(bnorm));
}

TEST(MultiRhsTest, MatchesIndependentSolvesColumnWise) {
  // A clean run (s = 3), rollback then degrade-s (s = 5 monomial) and a
  // gap-monitor escalation (unattainable gap tolerance, checked every outer
  // iteration): each column must be bitwise its solo solve, recoveries and
  // gap checks included.
  const sparse::CsrMatrix a = test_matrix();
  krylov::SolverOptions rollback = test_opts();
  rollback.s = 5;
  krylov::SolverOptions escalate = test_opts();
  escalate.gap_tol = 1e-15;
  escalate.gap_check_period = 1;
  const std::size_t k = 3;
  struct Case {
    const char* label;
    krylov::SolverOptions opts;
    bool recovers;  // the input exercises the recovery ladder
  };
  for (const Case& c : {Case{"clean", test_opts(), false},
                        Case{"rollback", rollback, true},
                        Case{"escalate", escalate, true}}) {
    const krylov::SolverOptions& opts = c.opts;
    ASSERT_LE(k, krylov::max_batch_columns(opts));

    // Independent reference solves on a serial engine.
    std::vector<std::vector<double>> x_ref(k);
    std::vector<krylov::SolveStats> stats_ref(k);
    for (std::size_t j = 0; j < k; ++j) {
      krylov::SerialEngine engine(a);
      krylov::Vec b = engine.new_vec();
      const std::vector<double> bj = test_rhs(a, j);
      for (std::size_t i = 0; i < bj.size(); ++i) b[i] = bj[i];
      krylov::Vec x = engine.new_vec();
      stats_ref[j] =
          krylov::make_solver("scg-sspmv")->solve(engine, b, x, opts);
      // The escalation input spends its whole recovery budget.
      if (!c.recovers) {
        ASSERT_TRUE(stats_ref[j].converged) << c.label;
      }
      x_ref[j].assign(x.data(), x.data() + x.size());
    }

    // One batched solve, all k columns with fused dot batches.
    krylov::SerialEngine engine(a);
    std::vector<krylov::Vec> bs;
    std::vector<krylov::Vec> xs;
    for (std::size_t j = 0; j < k; ++j) {
      krylov::Vec b = engine.new_vec();
      const std::vector<double> bj = test_rhs(a, j);
      for (std::size_t i = 0; i < bj.size(); ++i) b[i] = bj[i];
      bs.push_back(std::move(b));
      xs.push_back(engine.new_vec());
    }
    const std::vector<krylov::SolveStats> stats = krylov::scg_multi_solve(
        engine, std::span<const krylov::Vec>(bs), std::span<krylov::Vec>(xs),
        opts);

    ASSERT_EQ(stats.size(), k);
    std::size_t recoveries = 0;
    for (std::size_t j = 0; j < k; ++j) {
      recoveries += stats[j].recoveries;
      const krylov::SolveStats& got = stats[j];
      const krylov::SolveStats& want = stats_ref[j];
      EXPECT_EQ(got.converged, want.converged) << c.label << " column " << j;
      EXPECT_EQ(got.iterations, want.iterations) << c.label << " column " << j;
      EXPECT_EQ(got.history, want.history) << c.label << " column " << j;
      EXPECT_EQ(got.recoveries, want.recoveries) << c.label << " column " << j;
      EXPECT_EQ(got.final_s, want.final_s) << c.label << " column " << j;
      EXPECT_EQ(got.gap_checks, want.gap_checks) << c.label << " column " << j;
      EXPECT_EQ(got.replacements, want.replacements)
          << c.label << " column " << j;
      for (std::size_t i = 0; i < x_ref[j].size(); ++i)
        ASSERT_EQ(xs[j][i], x_ref[j][i])
            << c.label << " column " << j << " entry " << i;
    }
    EXPECT_EQ(recoveries > 0, c.recovers) << c.label;
  }
}

TEST(MultiRhsTest, SessionBatchMatchesIndependentSessionSolves) {
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  const krylov::SolverOptions opts = test_opts();
  const std::size_t k = 3;

  // Independent solves, each on a warm session.
  Session solo(a, config);
  std::vector<std::vector<double>> x_ref(k);
  std::vector<std::size_t> iters_ref(k);
  for (std::size_t j = 0; j < k; ++j) {
    SolveContext ctx("scg-sspmv", test_rhs(a, j), opts);
    solo.solve(ctx);
    ASSERT_TRUE(ctx.converged());
    x_ref[j] = ctx.x();
    iters_ref[j] = ctx.stats().iterations;
  }

  // The same requests as ONE batched team run.
  Session batched(a, config);
  std::vector<std::unique_ptr<SolveContext>> ctxs;
  std::vector<SolveContext*> ptrs;
  for (std::size_t j = 0; j < k; ++j) {
    ctxs.push_back(
        std::make_unique<SolveContext>("scg-sspmv", test_rhs(a, j), opts));
    ptrs.push_back(ctxs.back().get());
  }
  batched.solve_batch(ptrs);
  EXPECT_EQ(batched.team_runs(), 1u);
  EXPECT_EQ(batched.solves(), k);
  for (std::size_t j = 0; j < k; ++j) {
    ASSERT_EQ(ctxs[j]->state(), JobState::kDone);
    EXPECT_TRUE(ctxs[j]->converged());
    EXPECT_EQ(ctxs[j]->stats().iterations, iters_ref[j]) << "column " << j;
    for (std::size_t i = 0; i < x_ref[j].size(); ++i)
      ASSERT_EQ(ctxs[j]->x()[i], x_ref[j][i])
          << "column " << j << " entry " << i;
  }
}

TEST(MultiRhsTest, BatchWidthIsCappedByPayload) {
  // The fused payload k * (2s+1 + s^2) must fit one allreduce slot.
  const std::size_t cap3 = krylov::max_batch_columns(test_opts());
  EXPECT_EQ(cap3, par::Team::kMaxPayload / (2 * 3 + 1 + 3 * 3));
  EXPECT_GE(cap3, 16u);
  // The gap monitor reserves one true-residual dot per column: at s = 3,
  // 256 columns with a due check would need 256 * 17 > kMaxPayload.
  krylov::SolverOptions gap = test_opts();
  gap.gap_tol = 1e-3;
  EXPECT_EQ(krylov::max_batch_columns(gap),
            par::Team::kMaxPayload / (2 * 3 + 1 + 3 * 3 + 1));
}

TEST(AdmissionQueueTest, BatchesLongestCompatiblePrefix) {
  const sparse::CsrMatrix a = test_matrix(8);
  const krylov::SolverOptions opts = test_opts();
  SolveContext a1("scg-sspmv", test_rhs(a, 0), opts);
  SolveContext a2("scg-sspmv", test_rhs(a, 1), opts);
  SolveContext other("pipe-pscg", test_rhs(a, 2), opts);
  SolveContext a3("scg-sspmv", test_rhs(a, 3), opts);

  EXPECT_TRUE(batchable(a1, a2));
  EXPECT_FALSE(batchable(a1, other));
  krylov::SolverOptions loose = opts;
  loose.rtol = 1e-4;
  SolveContext different_tol("scg-sspmv", test_rhs(a, 4), loose);
  EXPECT_FALSE(batchable(a1, different_tol));

  AdmissionQueue queue;
  queue.submit(&a1);
  queue.submit(&a2);
  queue.submit(&other);
  queue.submit(&a3);
  EXPECT_EQ(queue.pending(), 4u);
  EXPECT_EQ(a1.state(), JobState::kQueued);

  // FIFO with prefix batching: {a1, a2} pop together, `other` blocks a3
  // from jumping ahead, then each pops singly.
  const std::vector<SolveContext*> first = queue.next_batch(8);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0], &a1);
  EXPECT_EQ(first[1], &a2);
  const std::vector<SolveContext*> second = queue.next_batch(8);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], &other);
  const std::vector<SolveContext*> third = queue.next_batch(8);
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0], &a3);
  EXPECT_TRUE(queue.next_batch(8).empty());
  EXPECT_EQ(queue.batches(), 1u);
}

TEST(AdmissionQueueTest, DrainExecutesMixedStream) {
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);
  const krylov::SolverOptions opts = test_opts();

  std::vector<std::unique_ptr<SolveContext>> stream;
  for (std::size_t j = 0; j < 3; ++j)
    stream.push_back(
        std::make_unique<SolveContext>("scg-sspmv", test_rhs(a, j), opts));
  stream.push_back(
      std::make_unique<SolveContext>("pipe-pscg", test_rhs(a, 3), opts));

  AdmissionQueue queue;
  for (auto& ctx : stream) queue.submit(ctx.get());
  const std::size_t executed = session.drain(queue);
  EXPECT_EQ(executed, 4u);
  EXPECT_EQ(queue.pending(), 0u);
  // 3 batchable jobs in one team run + 1 single = 2 runs.
  EXPECT_EQ(session.team_runs(), 2u);
  EXPECT_EQ(session.queue_latency().count(), 4u);
  for (const auto& ctx : stream) {
    EXPECT_EQ(ctx->state(), JobState::kDone);
    EXPECT_TRUE(ctx->converged());
  }
}

TEST(AdmissionQueueTest, BasisAndGapSettingsSplitBatches) {
  // A batch runs every column with its head's options: a Chebyshev job
  // queued behind a monomial one must not batch with it (it would silently
  // run monomial), and neither may jobs with different gap monitors,
  // recovery budgets or true-residual requests.  A job with an iteration
  // monitor batches with nothing.
  const sparse::CsrMatrix a = test_matrix();
  const krylov::SolverOptions mono = test_opts();
  krylov::SolverOptions cheb = mono;
  cheb.basis.type = krylov::BasisType::kChebyshev;
  krylov::SolverOptions bounded = cheb;
  bounded.basis.lambda_max = 8.0;
  krylov::SolverOptions gap = mono;
  gap.gap_tol = 1e-3;
  krylov::SolverOptions gap_period = gap;
  gap_period.gap_check_period = 2;
  krylov::SolverOptions gap_tighter = gap;
  gap_tighter.gap_tol = 1e-4;
  krylov::SolverOptions truth = mono;
  truth.compute_true_residual = true;
  krylov::SolverOptions no_recovery = mono;
  no_recovery.recovery = false;
  krylov::SolverOptions budget = mono;
  budget.max_recoveries = 2;
  krylov::SolverOptions watched = mono;
  watched.monitor = [](const krylov::IterationInfo&) {};
  SolveContext m("scg-sspmv", test_rhs(a, 0), mono);
  SolveContext c("scg-sspmv", test_rhs(a, 1), cheb);
  SolveContext cb("scg-sspmv", test_rhs(a, 2), bounded);
  SolveContext g("scg-sspmv", test_rhs(a, 3), gap);
  SolveContext gp("scg-sspmv", test_rhs(a, 4), gap_period);
  SolveContext g2("scg-sspmv", test_rhs(a, 5), gap);
  SolveContext gt("scg-sspmv", test_rhs(a, 6), gap_tighter);
  SolveContext t("scg-sspmv", test_rhs(a, 7), truth);
  SolveContext nr("scg-sspmv", test_rhs(a, 8), no_recovery);
  SolveContext bu("scg-sspmv", test_rhs(a, 9), budget);
  SolveContext w("scg-sspmv", test_rhs(a, 10), watched);
  SolveContext w2("scg-sspmv", test_rhs(a, 11), watched);
  EXPECT_FALSE(batchable(m, c));
  EXPECT_FALSE(batchable(c, cb));
  EXPECT_FALSE(batchable(m, g));
  EXPECT_FALSE(batchable(g, gp));
  EXPECT_TRUE(batchable(g, g2));  // equal gap monitors batch
  EXPECT_FALSE(batchable(g, gt));
  EXPECT_FALSE(batchable(m, t));
  EXPECT_FALSE(batchable(m, nr));
  EXPECT_FALSE(batchable(m, bu));
  EXPECT_FALSE(batchable(m, w));
  EXPECT_FALSE(batchable(w, m));
  EXPECT_FALSE(batchable(w, w2));

  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);
  AdmissionQueue queue;
  queue.submit(&m);
  queue.submit(&c);
  EXPECT_EQ(session.drain(queue), 2u);
  EXPECT_EQ(session.team_runs(), 2u);
  EXPECT_EQ(m.stats().basis, "monomial");
  EXPECT_EQ(c.stats().basis, "chebyshev");
  EXPECT_TRUE(c.converged());
}

TEST(AdmissionQueueTest, TrueResidualJobBehindAPlainOneGetsItsTrueResidual) {
  // finalize_stats reads compute_true_residual from the options the solve
  // ran with; batched behind a plain head the job would get -1.
  const sparse::CsrMatrix a = test_matrix();
  krylov::SolverOptions truth = test_opts();
  truth.compute_true_residual = true;
  SolveContext plain("scg-sspmv", test_rhs(a, 0), test_opts());
  SolveContext asks("scg-sspmv", test_rhs(a, 1), truth);
  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);
  AdmissionQueue queue;
  queue.submit(&plain);
  queue.submit(&asks);
  EXPECT_EQ(session.drain(queue), 2u);
  ASSERT_TRUE(asks.converged());
  EXPECT_GE(asks.stats().true_residual, 0.0);
  EXPECT_LT(asks.stats().true_residual,
            10.0 * truth.rtol * asks.stats().b_norm);
  EXPECT_EQ(plain.stats().true_residual, -1.0);
}

TEST(AdmissionQueueTest, DrainCapsBatchWidthAtTheFusedPayload) {
  // At s = 16 one allreduce fits only max_batch_columns(16) = 14 fused
  // columns: a 16-job batchable run must execute as two batches instead of
  // failing as one.
  const sparse::CsrMatrix a = test_matrix(8);
  krylov::SolverOptions opts = test_opts();
  opts.s = 16;
  opts.rtol = 1e-6;
  opts.max_iterations = 400;
  const std::size_t width = krylov::max_batch_columns(opts);
  ASSERT_LT(width, 16u);
  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);
  AdmissionQueue queue;
  std::vector<std::unique_ptr<SolveContext>> jobs;
  for (std::size_t j = 0; j < 16; ++j) {
    jobs.push_back(
        std::make_unique<SolveContext>("scg-sspmv", test_rhs(a, j), opts));
    queue.submit(jobs.back().get());
  }
  EXPECT_EQ(session.drain(queue, 16), 16u);
  EXPECT_EQ(session.team_runs(), 2u);
  EXPECT_EQ(session.queue_latency().count(), 16u);
  for (const auto& job : jobs) {
    EXPECT_EQ(job->state(), JobState::kDone) << job->error();
    EXPECT_TRUE(job->error().empty()) << job->error();
  }
}

TEST(MultiRhsTest, SolveBatchCapsBatchWidthAtTheFusedPayload) {
  // solve_batch splits at max_batch_columns exactly as drain does: 16
  // batchable jobs at s = 16 run as 14 + 2, each column bitwise its solo
  // solve.  A solve_batch job was never queued, so it records no
  // admission wait.
  const sparse::CsrMatrix a = test_matrix(8);
  krylov::SolverOptions opts = test_opts();
  opts.s = 16;
  opts.rtol = 1e-6;
  opts.max_iterations = 400;
  ASSERT_LT(krylov::max_batch_columns(opts), 16u);
  SessionConfig config;
  config.ranks = 2;
  Session solo(a, config);
  Session batched(a, config);
  std::vector<std::unique_ptr<SolveContext>> refs;
  std::vector<std::unique_ptr<SolveContext>> jobs;
  std::vector<SolveContext*> ptrs;
  for (std::size_t j = 0; j < 16; ++j) {
    refs.push_back(
        std::make_unique<SolveContext>("scg-sspmv", test_rhs(a, j), opts));
    solo.solve(*refs.back());
    jobs.push_back(
        std::make_unique<SolveContext>("scg-sspmv", test_rhs(a, j), opts));
    ptrs.push_back(jobs.back().get());
  }
  batched.solve_batch(ptrs);
  EXPECT_EQ(batched.team_runs(), 2u);
  EXPECT_EQ(batched.queue_latency().count(), 0u);
  for (std::size_t j = 0; j < 16; ++j) {
    const SolveContext& job = *jobs[j];
    const SolveContext& ref = *refs[j];
    ASSERT_EQ(job.state(), JobState::kDone) << "column " << j << ": "
                                            << job.error();
    ASSERT_EQ(job.x().size(), ref.x().size());
    for (std::size_t i = 0; i < ref.x().size(); ++i)
      ASSERT_EQ(job.x()[i], ref.x()[i]) << "column " << j << " entry " << i;
    ASSERT_EQ(job.stats().history.size(), ref.stats().history.size())
        << "column " << j;
    for (std::size_t h = 0; h < ref.stats().history.size(); ++h) {
      EXPECT_EQ(job.stats().history[h].first, ref.stats().history[h].first);
      EXPECT_EQ(job.stats().history[h].second, ref.stats().history[h].second)
          << "column " << j << " checkpoint " << h;
    }
  }
}

TEST(DeadlineTest, ExpiredJobIsDroppedWithDistinctTerminalState) {
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);

  SolveContext late("scg-sspmv", test_rhs(a, 0), test_opts());
  late.set_deadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  SolveContext fresh("scg-sspmv", test_rhs(a, 1), test_opts());
  fresh.set_deadline(std::chrono::steady_clock::now() +
                     std::chrono::hours(1));

  AdmissionQueue queue;
  queue.submit(&late);
  queue.submit(&fresh);
  const std::size_t executed = session.drain(queue);
  EXPECT_EQ(executed, 2u);  // both dequeued; one expired at dequeue

  EXPECT_EQ(late.state(), JobState::kExpired);
  EXPECT_STREQ(to_string(late.state()), "expired");
  EXPECT_FALSE(late.converged());
  EXPECT_EQ(late.submissions(), 0u);  // never ran on the team

  EXPECT_EQ(fresh.state(), JobState::kDone);
  EXPECT_TRUE(fresh.converged());

  EXPECT_EQ(session.expired(), 1u);
  EXPECT_EQ(session.solves(), 1u);
  const obs::metrics::SessionSnapshot snap = session.snapshot();
  EXPECT_EQ(snap.expired, 1u);
  obs::metrics::Registry registry;
  obs::metrics::register_session(registry, snap, {});
  EXPECT_NE(registry.prometheus().find("pipescg_session_expired_total"),
            std::string::npos);
}

TEST(DeadlineTest, ResumedChunksRecheckTheDeadline) {
  // A step-limited job whose deadline passes between submissions must not
  // be resubmitted past it: the resumed chunk expires instead of running.
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);

  SolveContext limited("scg-sspmv", test_rhs(a, 0), test_opts());
  limited.set_step_limit(3);  // one outer iteration per submission
  limited.set_deadline(std::chrono::steady_clock::now() +
                       std::chrono::hours(1));
  session.solve(limited);
  ASSERT_EQ(limited.state(), JobState::kDone);
  const std::size_t done_iterations = limited.total_iterations();
  EXPECT_GT(done_iterations, 0u);

  limited.set_deadline(std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1));
  session.solve(limited);
  EXPECT_EQ(limited.state(), JobState::kExpired);
  // The partial iterate survives; no further work was spent on it.
  EXPECT_EQ(limited.total_iterations(), done_iterations);
  EXPECT_EQ(limited.submissions(), 1u);
  EXPECT_EQ(session.expired(), 1u);
}

TEST(SessionTest, StabilityDefaultsApplyWhenContextLeavesThemUnset) {
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  config.basis.type = krylov::BasisType::kChebyshev;
  config.gap_tol = 1e-3;
  Session session(a, config);

  // Context with default (monomial, monitor off) options inherits the
  // session's chebyshev basis and gap monitor.
  SolveContext ctx("scg-sspmv", test_rhs(a, 0), test_opts());
  session.solve(ctx);
  ASSERT_EQ(ctx.state(), JobState::kDone);
  ASSERT_TRUE(ctx.converged());
  EXPECT_EQ(ctx.stats().basis, "chebyshev");
  EXPECT_GT(ctx.stats().basis_lambda_max, 0.0);

  // A context that chose its own basis wins over the session default.
  krylov::SolverOptions own = test_opts();
  own.basis.type = krylov::BasisType::kNewton;
  SolveContext picky("scg-sspmv", test_rhs(a, 1), own);
  session.solve(picky);
  ASSERT_TRUE(picky.converged());
  EXPECT_EQ(picky.stats().basis, "newton");
}

TEST(SessionTest, DrainedGapMonitoredJobsRunTheMonitor) {
  // Every batch column runs the gap monitor, so gap-monitored jobs batch --
  // whether they set gap_tol themselves or inherited the session default.
  const sparse::CsrMatrix a = test_matrix();
  krylov::SolverOptions own = test_opts();
  own.gap_tol = 1e-3;
  for (const bool session_default : {false, true}) {
    SessionConfig config;
    config.ranks = 2;
    if (session_default) config.gap_tol = 1e-3;
    Session session(a, config);
    const krylov::SolverOptions opts = session_default ? test_opts() : own;
    SolveContext first("scg-sspmv", test_rhs(a, 0), opts);
    SolveContext second("scg-sspmv", test_rhs(a, 1), opts);
    AdmissionQueue queue;
    queue.submit(&first);
    queue.submit(&second);
    EXPECT_EQ(session.drain(queue), 2u);
    EXPECT_EQ(session.team_runs(), 1u)
        << "session default " << session_default;
    for (const SolveContext* ctx : {&first, &second}) {
      ASSERT_EQ(ctx->state(), JobState::kDone);
      EXPECT_TRUE(ctx->converged());
      EXPECT_GT(ctx->stats().gap_checks, 0u)
          << "session default " << session_default;
    }
  }
}

TEST(SessionTest, BatchedDriverRunsTheGapMonitor) {
  const sparse::CsrMatrix a = test_matrix();
  krylov::SolverOptions opts = test_opts();
  opts.gap_tol = 1e-3;
  krylov::SerialEngine engine(a);
  std::vector<krylov::Vec> bs;
  std::vector<krylov::Vec> xs;
  std::vector<krylov::SolveStats> solo;
  for (std::size_t j = 0; j < 2; ++j) {
    bs.push_back(engine.new_vec());
    xs.push_back(engine.new_vec());
    const std::vector<double> bj = test_rhs(a, j);
    for (std::size_t i = 0; i < bj.size(); ++i) bs[j][i] = bj[i];
    krylov::Vec x = engine.new_vec();
    solo.push_back(
        krylov::make_solver("scg-sspmv")->solve(engine, bs[j], x, opts));
  }
  const std::vector<krylov::SolveStats> stats = krylov::scg_multi_solve(
      engine, std::span<const krylov::Vec>(bs), std::span<krylov::Vec>(xs),
      opts);
  ASSERT_EQ(stats.size(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_TRUE(stats[j].converged) << "column " << j;
    EXPECT_GT(stats[j].gap_checks, 0u) << "column " << j;
    EXPECT_EQ(stats[j].gap_checks, solo[j].gap_checks) << "column " << j;
    EXPECT_EQ(stats[j].max_residual_gap, solo[j].max_residual_gap)
        << "column " << j;
  }
}

TEST(SessionTest, SnapshotCarriesCountersAndHistograms) {
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);
  SolveContext ctx("scg-sspmv", test_rhs(a, 0), test_opts());
  session.solve(ctx);
  ASSERT_TRUE(ctx.converged());

  const obs::metrics::SessionSnapshot snap = session.snapshot();
  EXPECT_EQ(snap.ranks, 2);
  EXPECT_EQ(snap.solves, 1u);
  EXPECT_EQ(snap.dist_builds, 2u);
  EXPECT_EQ(snap.warm_hits, 1u);
  ASSERT_NE(snap.solve_latency, nullptr);
  EXPECT_EQ(snap.solve_latency->count(), 1u);

  obs::metrics::Registry registry;
  obs::metrics::register_session(registry, snap, {{"method", "scg-sspmv"}});
  const std::string text = registry.prometheus();
  EXPECT_NE(text.find("pipescg_session_solves_total"), std::string::npos);
  EXPECT_NE(text.find("pipescg_session_solve_latency_seconds"),
            std::string::npos);
  EXPECT_NE(text.find("kind=\"dist\""), std::string::npos);
}

// --- observability: tracing + anomaly detection e2e ------------------------

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(ObservabilityTest, TracedRequestWritesOneMergedPerfettoFile) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pipescg_svc_traces").string();
  std::filesystem::remove_all(dir);
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);
  obs::tracing::TraceSink traces(dir);
  Observability obs;
  obs.traces = &traces;
  session.set_observability(obs);

  SolveContext ctx("scg-sspmv", test_rhs(a, 0), test_opts());
  session.solve(ctx);
  ASSERT_TRUE(ctx.converged());
  ASSERT_FALSE(ctx.trace_path().empty());
  EXPECT_EQ(ctx.trace_path(), traces.path_for(ctx.trace_id()));

  const obs::json::Value doc = obs::json::parse_file(ctx.trace_path());
  EXPECT_DOUBLE_EQ(doc.at("trace_id").as_number(),
                   static_cast<double>(ctx.trace_id()));
  const obs::json::Value& events = doc.at("traceEvents");

  // One named track per rank plus the service track.
  std::vector<std::string> tracks;
  double root_span_id = 0.0;
  std::size_t rank_solves = 0;
  std::size_t outer_iterations = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::json::Value& ev = events.at(i);
    if (ev.at("ph").as_string() == "M" &&
        ev.at("name").as_string() == "thread_name")
      tracks.push_back(ev.at("args").at("name").as_string());
    if (ev.at("ph").as_string() != "X") continue;
    // Every span links back to the request.
    EXPECT_DOUBLE_EQ(ev.at("args").at("trace_id").as_number(),
                     static_cast<double>(ctx.trace_id()));
    if (ev.at("name").as_string() == "request")
      root_span_id = ev.at("args").at("span_id").as_number();
  }
  ASSERT_EQ(tracks.size(), 3u);
  EXPECT_EQ(tracks[0], "rank 0");
  EXPECT_EQ(tracks[1], "rank 1");
  EXPECT_EQ(tracks[2], "service");
  ASSERT_NE(root_span_id, 0.0);
  // Every rank's root span nests directly under the request span, and each
  // rank recorded per-outer-iteration checkpoint spans.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::json::Value& ev = events.at(i);
    if (ev.at("ph").as_string() != "X") continue;
    if (ev.at("name").as_string() == "rank_solve") {
      ++rank_solves;
      EXPECT_DOUBLE_EQ(ev.at("args").at("parent_span_id").as_number(),
                       root_span_id);
    }
    if (ev.at("name").as_string() == "outer_iteration") ++outer_iterations;
  }
  EXPECT_EQ(rank_solves, 2u);
  EXPECT_GE(outer_iterations, 2u);
  std::filesystem::remove_all(dir);
}

TEST(ObservabilityTest, BatchedColumnsShareOneMergedTrace) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pipescg_batch_traces")
          .string();
  std::filesystem::remove_all(dir);
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);
  obs::tracing::TraceSink traces(dir);
  Observability obs;
  obs.traces = &traces;
  session.set_observability(obs);

  SolveContext c0("scg-sspmv", test_rhs(a, 0), test_opts());
  SolveContext c1("scg-sspmv", test_rhs(a, 1), test_opts());
  const std::vector<SolveContext*> ptrs = {&c0, &c1};
  session.solve_batch(ptrs);
  ASSERT_TRUE(c0.converged());
  ASSERT_TRUE(c1.converged());
  // The merged file is keyed by the batch head's id; every batched column
  // points at the same file.
  EXPECT_EQ(c0.trace_path(), traces.path_for(c0.trace_id()));
  EXPECT_EQ(c1.trace_path(), c0.trace_path());
  const obs::json::Value doc = obs::json::parse_file(c0.trace_path());
  EXPECT_DOUBLE_EQ(doc.at("trace_id").as_number(),
                   static_cast<double>(c0.trace_id()));
  std::filesystem::remove_all(dir);
}

TEST(ObservabilityTest, TracedSolveIsBitwiseIdenticalToUntraced) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pipescg_bitwise_traces")
          .string();
  std::filesystem::remove_all(dir);
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  const krylov::SolverOptions opts = test_opts();
  const std::vector<double> b = test_rhs(a, 0);

  Session plain(a, config);
  SolveContext bare("scg-sspmv", b, opts);
  plain.solve(bare);
  ASSERT_TRUE(bare.converged());

  Session observed(a, config);
  obs::tracing::TraceSink traces(dir);
  obs::anomaly::AlertSink alerts;
  obs::metrics::Registry registry;
  Observability obs;
  obs.traces = &traces;
  obs.alerts = &alerts;
  obs.registry = &registry;
  observed.set_observability(obs);
  SolveContext watched("scg-sspmv", b, opts);
  observed.solve(watched);
  ASSERT_TRUE(watched.converged());

  // The whole observability stack only READS measurements: identical
  // iteration count, identical final rnorm, bitwise-identical iterate.
  EXPECT_EQ(watched.stats().iterations, bare.stats().iterations);
  EXPECT_EQ(watched.stats().final_rnorm, bare.stats().final_rnorm);
  ASSERT_EQ(watched.x().size(), bare.x().size());
  for (std::size_t i = 0; i < watched.x().size(); ++i)
    ASSERT_EQ(watched.x()[i], bare.x()[i]) << "entry " << i;
  std::filesystem::remove_all(dir);
}

TEST(ObservabilityTest, SlowRankFaultRaisesExactlyOneStragglerAlert) {
  const sparse::CsrMatrix a = test_matrix(24);
  const krylov::SolverOptions opts = test_opts();
  // The CI trace-smoke's detector: with 3 ranks |z| <= sqrt(2), so the
  // 5% dominance bound and the 3-checkpoint streak decide -- out of reach
  // for scheduler noise on the clean run, trivial for the 16x fault.
  obs::anomaly::StragglerConfig straggler;
  straggler.window = 4;
  straggler.consecutive = 3;
  straggler.dominance = 0.05;
  straggler.min_mean_seconds = 1e-5;

  // Clean run first: balanced ranks must raise nothing.
  {
    SessionConfig config;
    config.ranks = 3;
    Session session(a, config);
    obs::anomaly::AlertSink alerts;
    Observability obs;
    obs.alerts = &alerts;
    obs.straggler = straggler;
    session.set_observability(obs);
    SolveContext ctx("scg-sspmv", test_rhs(a, 0), opts);
    session.solve(ctx);
    ASSERT_TRUE(ctx.converged());
    for (const obs::anomaly::Alert& alert : alerts.alerts())
      EXPECT_NE(alert.family, "straggler") << alert.message;
  }

  // Same solve with rank 1 computing 16x slower: its own waits collapse
  // while both peers spin on it, and the detector must blame exactly rank 1
  // exactly once.
  const std::string alerts_path =
      (std::filesystem::temp_directory_path() / "pipescg_alerts.jsonl")
          .string();
  SessionConfig config;
  config.ranks = 3;
  config.fault_specs =
      fault::parse_fault_specs("rank=1:kind=slow:factor=16");
  Session session(a, config);
  obs::anomaly::AlertSink alerts(alerts_path);
  Observability obs;
  obs.alerts = &alerts;
  obs.straggler = straggler;
  session.set_observability(obs);
  SolveContext ctx("scg-sspmv", test_rhs(a, 0), opts);
  session.solve(ctx);
  ASSERT_TRUE(ctx.converged());

  std::vector<obs::anomaly::Alert> straggler_alerts;
  for (const obs::anomaly::Alert& alert : alerts.alerts())
    if (alert.family == "straggler") straggler_alerts.push_back(alert);
  ASSERT_EQ(straggler_alerts.size(), 1u);
  EXPECT_EQ(straggler_alerts[0].rank, 1);
  EXPECT_EQ(straggler_alerts[0].trace_id, ctx.trace_id());
  EXPECT_LE(straggler_alerts[0].value, straggler_alerts[0].threshold);

  // The JSONL stream round-trips the same alert for the ops console.
  const std::vector<obs::anomaly::Alert> from_file =
      obs::anomaly::AlertSink::parse_jsonl(slurp(alerts_path));
  ASSERT_EQ(from_file.size(), alerts.emitted());
  bool found = false;
  for (const obs::anomaly::Alert& alert : from_file)
    if (alert.family == "straggler" && alert.rank == 1 &&
        alert.trace_id == ctx.trace_id())
      found = true;
  EXPECT_TRUE(found);
  std::remove(alerts_path.c_str());
}

TEST(ObservabilityTest, CleanBatchRaisesNoStallAlert) {
  // A 16-column batch interleaves its columns' residual checkpoints; the
  // stall detector must keep one window per column, or converging columns
  // compared against each other read as a plateau.
  const sparse::CsrMatrix a = test_matrix(32);
  krylov::SolverOptions opts = test_opts();
  opts.rtol = 1e-6;
  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);
  obs::anomaly::AlertSink alerts;
  Observability obs;
  obs.alerts = &alerts;
  session.set_observability(obs);
  std::vector<std::unique_ptr<SolveContext>> jobs;
  std::vector<SolveContext*> ptrs;
  for (std::size_t j = 0; j < 16; ++j) {
    jobs.push_back(
        std::make_unique<SolveContext>("scg-sspmv", test_rhs(a, j), opts));
    ptrs.push_back(jobs.back().get());
  }
  session.solve_batch(ptrs);
  for (const auto& job : jobs) ASSERT_TRUE(job->converged());
  for (const obs::anomaly::Alert& alert : alerts.alerts())
    EXPECT_NE(alert.family, "convergence_stall") << alert.message;
}

TEST(ObservabilityTest, ExpiredJobFlushesTerminalMetricsAndAlerts) {
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);

  obs::metrics::Registry registry;
  const std::string prom_path =
      ::testing::TempDir() + "pipescg_expired.prom";
  std::remove(prom_path.c_str());
  obs::metrics::MetricsSampler sampler(registry, prom_path,
                                       /*period_ms=*/60'000.0);
  obs::anomaly::AlertSink alerts;
  Observability obs;
  obs.registry = &registry;
  obs.sampler = &sampler;
  obs.alerts = &alerts;
  session.set_observability(obs);

  SolveContext late("scg-sspmv", test_rhs(a, 0), test_opts());
  late.set_deadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  AdmissionQueue queue;
  queue.submit(&late);
  session.drain(queue);
  EXPECT_EQ(late.state(), JobState::kExpired);

  // The expiry flushed a snapshot immediately -- the sampler never ticked
  // on its own (60s period, never started), yet the terminal counter is on
  // disk.
  EXPECT_GE(sampler.samples(), 1u);
  EXPECT_NE(slurp(prom_path).find("pipescg_live_expired_total 1"),
            std::string::npos);

  // ...and the expiry raised a critical deadline_pressure alert carrying
  // the request's trace id.
  bool found = false;
  for (const obs::anomaly::Alert& alert : alerts.alerts())
    if (alert.family == "deadline_pressure" && alert.severity == "critical" &&
        alert.trace_id == late.trace_id())
      found = true;
  EXPECT_TRUE(found);
  std::remove(prom_path.c_str());
}

TEST(ObservabilityTest, QueueSaturationFiresOnTheRisingEdgeOnly) {
  const sparse::CsrMatrix a = test_matrix();
  SessionConfig config;
  config.ranks = 2;
  Session session(a, config);
  obs::anomaly::AlertSink alerts;
  Observability obs;
  obs.alerts = &alerts;
  obs.detectors = false;  // isolate the admission-side monitor
  obs.queue_pressure.depth_threshold = 2;
  session.set_observability(obs);

  std::vector<std::unique_ptr<SolveContext>> stream;
  for (std::size_t j = 0; j < 3; ++j)
    stream.push_back(std::make_unique<SolveContext>("scg-sspmv",
                                                    test_rhs(a, j),
                                                    test_opts()));
  AdmissionQueue queue;
  for (auto& ctx : stream) queue.submit(ctx.get());
  session.drain(queue);
  for (const auto& ctx : stream) ASSERT_TRUE(ctx->converged());

  std::size_t saturation = 0;
  for (const obs::anomaly::Alert& alert : alerts.alerts())
    if (alert.family == "queue_saturation") ++saturation;
  EXPECT_EQ(saturation, 1u);
}

}  // namespace
}  // namespace pipescg::service
