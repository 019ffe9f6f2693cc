// Solver correctness tests on the SerialEngine: every method must solve
// small SPD systems to tolerance, and the s-step variants must agree with
// plain PCG on the solution.
#include <gtest/gtest.h>

#include <cmath>

#include "pipescg/pipescg.hpp"

namespace pipescg {
namespace {

using krylov::NormType;
using krylov::SerialEngine;
using krylov::SolverOptions;
using krylov::SolveStats;
using krylov::Vec;

sparse::CsrMatrix poisson2d(std::size_t n) {
  return sparse::assemble_stencil2d(sparse::stencil_poisson5(), n, n,
                                    "poisson2d");
}

/// Solve with x* = ones as the manufactured solution; returns the stats and
/// max |x_i - 1|.
struct RunResult {
  SolveStats stats;
  double x_error;
};

RunResult run(const std::string& method, const sparse::CsrMatrix& a,
              const precond::Preconditioner* pc, SolverOptions opts) {
  sim::EventTrace trace;
  const precond::Preconditioner* effective =
      krylov::solver_uses_preconditioner(method) ? pc : nullptr;
  SerialEngine engine(a, effective, &trace);
  Vec ones = engine.new_vec();
  for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
  Vec b = engine.new_vec();
  a.apply(ones.span(), b.span());
  Vec x = engine.new_vec();
  opts.compute_true_residual = true;
  RunResult result;
  result.stats = krylov::make_solver(method)->solve(engine, b, x, opts);
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    err = std::max(err, std::abs(x[i] - 1.0));
  result.x_error = err;
  return result;
}

class AllMethodsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllMethodsTest, ConvergesOnPoisson2D) {
  const sparse::CsrMatrix a = poisson2d(24);
  precond::JacobiPreconditioner pc(a);
  SolverOptions opts;
  opts.rtol = 1e-8;
  opts.max_iterations = 5000;
  const RunResult r = run(GetParam(), a, &pc, opts);
  EXPECT_TRUE(r.stats.converged) << GetParam() << " did not converge";
  EXPECT_FALSE(r.stats.breakdown);
  // True residual should honor the tolerance within a modest safety factor
  // (recurred residuals drift below the true residual in pipelined methods).
  EXPECT_LT(r.stats.true_residual, 100 * opts.rtol * r.stats.b_norm)
      << GetParam();
  EXPECT_LT(r.x_error, 1e-5) << GetParam();
}

TEST_P(AllMethodsTest, IterationCountComparableToPcg) {
  const sparse::CsrMatrix a = poisson2d(16);
  precond::JacobiPreconditioner pc(a);
  SolverOptions opts;
  opts.rtol = 1e-6;
  opts.max_iterations = 5000;
  const RunResult ref = run("pcg", a, &pc, opts);
  const RunResult r = run(GetParam(), a, &pc, opts);
  ASSERT_TRUE(ref.stats.converged);
  ASSERT_TRUE(r.stats.converged) << GetParam();
  // Mathematically equivalent Krylov methods: iteration counts may differ by
  // the s-granularity of the convergence check plus finite-precision noise.
  EXPECT_LE(r.stats.iterations, 2 * ref.stats.iterations + 20) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AllMethodsTest,
    ::testing::Values("pcg", "pipecg", "pipecg3", "pipecg-oati", "scg",
                      "pscg", "scg-sspmv", "pipe-scg", "pipe-pscg", "hybrid"),
    [](const auto& info) {
      std::string n = info.param;
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

class SSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SSweepTest, PipePscgConvergesForEveryS) {
  const sparse::CsrMatrix a = poisson2d(20);
  precond::JacobiPreconditioner pc(a);
  SolverOptions opts;
  opts.rtol = 1e-7;
  opts.s = GetParam();
  opts.max_iterations = 5000;
  const RunResult r = run("pipe-pscg", a, &pc, opts);
  EXPECT_TRUE(r.stats.converged) << "s=" << GetParam();
  EXPECT_LT(r.x_error, 1e-4) << "s=" << GetParam();
}

TEST_P(SSweepTest, PipeScgConvergesForEveryS) {
  const sparse::CsrMatrix a = poisson2d(20);
  SolverOptions opts;
  opts.rtol = 1e-7;
  opts.s = GetParam();
  opts.max_iterations = 5000;
  const RunResult r = run("pipe-scg", a, nullptr, opts);
  EXPECT_TRUE(r.stats.converged) << "s=" << GetParam();
  EXPECT_LT(r.x_error, 1e-4) << "s=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(S, SSweepTest, ::testing::Values(1, 2, 3, 4, 5));

class NormFlavorTest : public ::testing::TestWithParam<NormType> {};

TEST_P(NormFlavorTest, PipePscgSupportsAllNorms) {
  const sparse::CsrMatrix a = poisson2d(16);
  precond::JacobiPreconditioner pc(a);
  SolverOptions opts;
  opts.rtol = 1e-7;
  opts.norm = GetParam();
  const RunResult r = run("pipe-pscg", a, &pc, opts);
  EXPECT_TRUE(r.stats.converged) << to_string(GetParam());
  EXPECT_LT(r.x_error, 1e-4);
}

TEST_P(NormFlavorTest, PcgSupportsAllNorms) {
  const sparse::CsrMatrix a = poisson2d(16);
  precond::JacobiPreconditioner pc(a);
  SolverOptions opts;
  opts.rtol = 1e-7;
  opts.norm = GetParam();
  const RunResult r = run("pcg", a, &pc, opts);
  EXPECT_TRUE(r.stats.converged);
}

INSTANTIATE_TEST_SUITE_P(Norms, NormFlavorTest,
                         ::testing::Values(NormType::kPreconditioned,
                                           NormType::kUnpreconditioned,
                                           NormType::kNatural),
                         [](const auto& info) { return to_string(info.param); });

TEST(SolverTest, ZeroRhsConvergesImmediately) {
  const sparse::CsrMatrix a = poisson2d(8);
  SerialEngine engine(a);
  Vec b = engine.new_vec();  // zero
  Vec x = engine.new_vec();
  SolverOptions opts;
  opts.atol = 1e-12;  // rtol * ||b|| = 0, atol takes over
  const SolveStats stats = krylov::make_solver("pcg")->solve(engine, b, x, opts);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 0u);
}

class InitialGuessTest : public ::testing::TestWithParam<std::string> {};

TEST_P(InitialGuessTest, ExactGuessConvergesImmediately) {
  const sparse::CsrMatrix a = poisson2d(12);
  precond::JacobiPreconditioner pc(a);
  const std::string method = GetParam();
  SerialEngine engine(
      a, krylov::solver_uses_preconditioner(method) ? &pc : nullptr);
  Vec ones = engine.new_vec();
  for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
  Vec b = engine.new_vec();
  a.apply(ones.span(), b.span());
  Vec x = engine.new_vec();
  engine.copy(ones, x);
  SolverOptions opts;
  opts.rtol = 1e-8;
  const SolveStats stats =
      krylov::make_solver(method)->solve(engine, b, x, opts);
  EXPECT_TRUE(stats.converged) << method;
  EXPECT_EQ(stats.iterations, 0u) << method;
}

TEST_P(InitialGuessTest, WarmStartDoesNotIncreaseIterationsMuch) {
  const sparse::CsrMatrix a = poisson2d(16);
  precond::JacobiPreconditioner pc(a);
  const std::string method = GetParam();
  auto solve_from = [&](double perturbation) {
    SerialEngine engine(
        a, krylov::solver_uses_preconditioner(method) ? &pc : nullptr);
    Vec ones = engine.new_vec();
    for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
    Vec b = engine.new_vec();
    a.apply(ones.span(), b.span());
    Vec x = engine.new_vec();
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = 1.0 - perturbation * (i % 7 == 0 ? 1.0 : 0.1);
    SolverOptions opts;
    opts.rtol = 1e-8;
    const SolveStats stats =
        krylov::make_solver(method)->solve(engine, b, x, opts);
    EXPECT_TRUE(stats.converged) << method;
    return stats.iterations;
  };
  const std::size_t warm = solve_from(1e-6);
  const std::size_t cold = solve_from(1.0);
  EXPECT_LT(warm, cold) << method;
}

INSTANTIATE_TEST_SUITE_P(
    Methods, InitialGuessTest,
    ::testing::Values("pcg", "pipecg", "pipecg-oati", "pscg", "scg-sspmv",
                      "pipe-scg", "pipe-pscg"),
    [](const auto& info) {
      std::string n = info.param;
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST(SolverTest, HonorsInitialGuess) {
  const sparse::CsrMatrix a = poisson2d(12);
  SerialEngine engine(a);
  Vec ones = engine.new_vec();
  for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
  Vec b = engine.new_vec();
  a.apply(ones.span(), b.span());
  Vec x = engine.new_vec();
  engine.copy(ones, x);  // exact solution as the initial guess
  SolverOptions opts;
  opts.rtol = 1e-10;
  const SolveStats stats =
      krylov::make_solver("pipe-pscg")->solve(engine, b, x, opts);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 0u);
}

TEST(SolverTest, MaxIterationsRespected) {
  const sparse::CsrMatrix a = poisson2d(24);
  SerialEngine engine(a);
  Vec b = engine.new_vec();
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0;
  Vec x = engine.new_vec();
  SolverOptions opts;
  opts.rtol = 1e-14;
  opts.max_iterations = 6;
  const SolveStats stats = krylov::make_solver("pcg")->solve(engine, b, x, opts);
  EXPECT_FALSE(stats.converged);
  EXPECT_LE(stats.iterations, 6u);
}

TEST(SolverTest, HistoryIsRecordedAndDecreasesOverall) {
  const sparse::CsrMatrix a = poisson2d(20);
  precond::JacobiPreconditioner pc(a);
  SolverOptions opts;
  opts.rtol = 1e-8;
  const RunResult r = run("pipe-pscg", a, &pc, opts);
  ASSERT_GE(r.stats.history.size(), 3u);
  EXPECT_LT(r.stats.history.back().second, r.stats.history.front().second);
}

TEST(SolverTest, SpectrumEstimateTracksOperatorConditioning) {
  // Jacobi-preconditioned 5-pt Laplacian: lambda in (0, 2), kappa ~ known.
  const sparse::CsrMatrix a = poisson2d(20);
  precond::JacobiPreconditioner pc(a);
  SerialEngine engine(a, &pc);
  Vec ones = engine.new_vec();
  for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
  Vec b = engine.new_vec();
  a.apply(ones.span(), b.span());
  Vec x = engine.new_vec();
  SolverOptions opts;
  opts.rtol = 1e-10;
  opts.estimate_spectrum = true;
  const SolveStats stats = krylov::make_solver("pcg")->solve(engine, b, x, opts);
  ASSERT_TRUE(stats.converged);
  EXPECT_GT(stats.lambda_min_est, 0.0);
  EXPECT_LT(stats.lambda_max_est, 2.01);  // D^{-1}A spectrum bound
  EXPECT_GT(stats.lambda_max_est, 1.5);
  // kappa(D^{-1}A) for the 20x20 5-pt Laplacian is ~180.
  EXPECT_GT(stats.condition_est, 50.0);
  EXPECT_LT(stats.condition_est, 400.0);
}

TEST(SolverTest, SpectrumEstimateOffByDefault) {
  const sparse::CsrMatrix a = poisson2d(8);
  SerialEngine engine(a);
  Vec b = engine.new_vec();
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0;
  Vec x = engine.new_vec();
  const SolveStats stats =
      krylov::make_solver("pcg")->solve(engine, b, x, SolverOptions{});
  EXPECT_LT(stats.condition_est, 0.0);
}

TEST(SolverTest, UnknownSolverNameThrows) {
  EXPECT_THROW(krylov::make_solver("bogus"), Error);
}

TEST(SolverTest, StagnationDetectionStopsPipelinedSstep) {
  // An extremely ill-conditioned problem at a tight tolerance: PIPE-PsCG's
  // recurred residual should stall before reaching it, and the detector
  // should fire rather than loop to max_iterations.
  const sparse::CsrMatrix a = sparse::make_ecology2_like(48, 48);
  precond::JacobiPreconditioner pc(a);
  SolverOptions opts;
  opts.rtol = 1e-13;
  opts.detect_stagnation = true;
  opts.max_iterations = 200000;
  const RunResult r = run("pipe-pscg", a, &pc, opts);
  EXPECT_TRUE(r.stats.stagnated || r.stats.converged);
  EXPECT_LT(r.stats.iterations, opts.max_iterations);
}

TEST(SolverTest, HybridReachesTighterToleranceThanPipePscg) {
  const sparse::CsrMatrix a = sparse::make_ecology2_like(48, 48);
  precond::JacobiPreconditioner pc(a);
  SolverOptions opts;
  opts.rtol = 1e-9;
  opts.max_iterations = 100000;
  const RunResult hybrid = run("hybrid", a, &pc, opts);
  EXPECT_TRUE(hybrid.stats.converged)
      << "hybrid should reach what PIPE-PsCG alone may not";
}

TEST(MonitorTest, FiresAtEveryCheckpointInOrder) {
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), 12, 12, "p");
  for (const char* method : {"pcg", "pipecg", "pipe-pscg", "scg"}) {
    krylov::SerialEngine engine(a);
    krylov::Vec b = engine.new_vec();
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0;
    krylov::Vec x = engine.new_vec();
    krylov::SolverOptions opts;
    opts.rtol = 1e-7;
    std::vector<krylov::IterationInfo> seen;
    opts.monitor = [&seen](const krylov::IterationInfo& info) {
      seen.push_back(info);
    };
    const auto stats = krylov::make_solver(method)->solve(engine, b, x, opts);
    ASSERT_TRUE(stats.converged) << method;
    ASSERT_EQ(seen.size(), stats.history.size()) << method;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].iteration, stats.history[i].first) << method;
      if (i > 0) {
        EXPECT_GE(seen[i].iteration, seen[i - 1].iteration);
      }
    }
  }
}

}  // namespace
}  // namespace pipescg
