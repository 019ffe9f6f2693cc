// Fault-injection harness tests: spec grammar, checkpoint/rollback unit
// behaviour, and the fault matrix -- every fault kind against the s-step
// methods on the real SPMD runtime.  The contract under
// test (DESIGN.md section 9): a faulty solve either converges after
// recovery or stops with a clean diagnostic; it never hangs and never
// reports convergence with a garbage iterate.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pipescg/base/error.hpp"
#include "pipescg/fault/injector.hpp"
#include "pipescg/fault/recovery.hpp"
#include "pipescg/fault/spec.hpp"
#include "pipescg/krylov/registry.hpp"
#include "pipescg/krylov/solver.hpp"
#include "pipescg/krylov/spmd_engine.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/precond/jacobi.hpp"
#include "pipescg/service/queue.hpp"
#include "pipescg/service/session.hpp"
#include "pipescg/sparse/dist_csr.hpp"
#include "pipescg/sparse/partition.hpp"
#include "pipescg/sparse/surrogates.hpp"

namespace pipescg {
namespace {

using fault::FaultKind;
using fault::FaultSpec;
using fault::FaultTarget;

// ---------------------------------------------------------------------------
// Spec grammar
// ---------------------------------------------------------------------------

TEST(FaultSpecTest, ParsesAllFieldsOfAnSdcSpec) {
  const FaultSpec spec =
      fault::parse_fault_spec("kind=sdc:rank=2:target=pc:iter=40:bits=3:seed=9");
  EXPECT_EQ(spec.kind, FaultKind::kSdc);
  EXPECT_EQ(spec.rank, 2);
  EXPECT_EQ(spec.target, FaultTarget::kPc);
  EXPECT_EQ(spec.iter, 40u);
  EXPECT_EQ(spec.bits, 3);
  EXPECT_EQ(spec.bit, -1);
  EXPECT_EQ(spec.seed, 9u);
}

TEST(FaultSpecTest, ExplicitBitOverridesBits) {
  const FaultSpec spec = fault::parse_fault_spec("kind=sdc:bit=61");
  EXPECT_EQ(spec.bit, 61);
}

TEST(FaultSpecTest, DefaultsApplied) {
  const FaultSpec spec = fault::parse_fault_spec("kind=slow:factor=8");
  EXPECT_EQ(spec.kind, FaultKind::kSlow);
  EXPECT_EQ(spec.rank, 0);
  EXPECT_EQ(spec.target, FaultTarget::kSpmv);
  EXPECT_EQ(spec.iter, 0u);
  EXPECT_DOUBLE_EQ(spec.factor, 8.0);
}

TEST(FaultSpecTest, StallDefaultsToAllreduceTarget) {
  const FaultSpec spec = fault::parse_fault_spec("kind=stall:ms=250");
  EXPECT_EQ(spec.target, FaultTarget::kAllreduce);
  EXPECT_DOUBLE_EQ(spec.ms, 250.0);
  // ...unless a target is named explicitly.
  EXPECT_EQ(fault::parse_fault_spec("kind=stall:target=halo").target,
            FaultTarget::kHalo);
}

TEST(FaultSpecTest, ParsesSemicolonSeparatedList) {
  const std::vector<FaultSpec> specs = fault::parse_fault_specs(
      "rank=1:kind=slow:factor=3 ; kind=sdc:target=spmv:iter=40:bit=61");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].kind, FaultKind::kSlow);
  EXPECT_EQ(specs[1].kind, FaultKind::kSdc);
  EXPECT_TRUE(fault::parse_fault_specs("").empty());
  EXPECT_TRUE(fault::parse_fault_specs(" ; ").empty());
}

TEST(FaultSpecTest, StrictParsingRejectsTypos) {
  EXPECT_THROW(fault::parse_fault_spec("rank=2:factor=8"), Error);  // no kind
  EXPECT_THROW(fault::parse_fault_spec("kind=bogus"), Error);
  EXPECT_THROW(fault::parse_fault_spec("kind=sdc:target=gpu"), Error);
  EXPECT_THROW(fault::parse_fault_spec("kind=sdc:frequency=2"), Error);
  EXPECT_THROW(fault::parse_fault_spec("kind=sdc:iter=abc"), Error);
  EXPECT_THROW(fault::parse_fault_spec("kind=sdc:bit=64"), Error);
  EXPECT_THROW(fault::parse_fault_spec("kind=sdc:bits=0"), Error);
  EXPECT_THROW(fault::parse_fault_spec("kind=slow:factor=0.5"), Error);
  EXPECT_THROW(fault::parse_fault_spec("kind=stall:ms=-1"), Error);
  EXPECT_THROW(fault::parse_fault_spec("kind=die:rank=-1"), Error);
  EXPECT_THROW(fault::parse_fault_spec("kind"), Error);  // not key=value
}

// ---------------------------------------------------------------------------
// RecoveryManager
// ---------------------------------------------------------------------------

TEST(RecoveryManagerTest, InactiveManagerDoesNothing) {
  fault::RecoveryManager r(/*enabled=*/false, /*max_recoveries=*/8);
  EXPECT_FALSE(r.active());
  EXPECT_FALSE(r.should_save(1.0));
  std::vector<double> x = {1.0, 2.0};
  r.save(x, 5, 0.5);
  EXPECT_FALSE(r.has_checkpoint());
  EXPECT_FALSE(r.admit_failure());
}

TEST(RecoveryManagerTest, SaveRestoreRoundTrips) {
  fault::RecoveryManager r(true, 8);
  std::vector<double> x = {1.0, 2.0, 3.0};
  r.save(x, 42, 0.25);
  ASSERT_TRUE(r.has_checkpoint());
  x = {-9.0, -9.0, -9.0};  // corrupted by a fault
  EXPECT_EQ(r.restore(x), 42u);
  EXPECT_EQ(x, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(r.checkpoint_rnorm(), 0.25);
}

TEST(RecoveryManagerTest, SavesOnlyFiniteImprovements) {
  fault::RecoveryManager r(true, 8);
  EXPECT_TRUE(r.should_save(1.0));  // no checkpoint yet
  std::vector<double> x = {0.0};
  r.save(x, 0, 1.0);
  EXPECT_FALSE(r.should_save(2.0));  // worse
  EXPECT_FALSE(r.should_save(1.0));  // no better
  EXPECT_TRUE(r.should_save(0.5));
  EXPECT_FALSE(r.should_save(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(r.should_save(std::numeric_limits<double>::infinity()));
}

TEST(RecoveryManagerTest, FailureBudgetExhausts) {
  fault::RecoveryManager r(true, /*max_recoveries=*/2);
  EXPECT_TRUE(r.admit_failure());
  EXPECT_TRUE(r.admit_failure());
  EXPECT_FALSE(r.admit_failure());  // budget spent
  EXPECT_EQ(r.recoveries(), 3u);
}

TEST(RecoveryManagerTest, DegradesAfterTwoNoProgressFailures) {
  fault::RecoveryManager r(true, 8);
  std::vector<double> x = {0.0};
  r.save(x, 0, 1.0);
  EXPECT_TRUE(r.admit_failure());     // progress had been made: consecutive=1
  EXPECT_FALSE(r.should_degrade());
  EXPECT_TRUE(r.admit_failure());     // no save since: consecutive=2
  EXPECT_TRUE(r.should_degrade());
  r.acknowledge_degrade();
  EXPECT_FALSE(r.should_degrade());
  r.save(x, 3, 0.5);                  // progress resets the streak
  EXPECT_TRUE(r.admit_failure());
  EXPECT_FALSE(r.should_degrade());
}

// ---------------------------------------------------------------------------
// Residual checkpoint NaN guard (shared by every solver driver)
// ---------------------------------------------------------------------------

TEST(CheckpointTest, NonFiniteResidualFlagsBreakdownAndStops) {
  krylov::SolveStats stats;
  krylov::SolverOptions opts;
  EXPECT_TRUE(krylov::detail::checkpoint(stats, opts, 1, 0.5));
  EXPECT_FALSE(stats.breakdown);
  EXPECT_FALSE(krylov::detail::checkpoint(
      stats, opts, 2, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_TRUE(stats.breakdown);
  // Both checkpoints are recorded so the history shows where it died.
  ASSERT_EQ(stats.history.size(), 2u);
  EXPECT_TRUE(std::isnan(stats.history.back().second));
}

// ---------------------------------------------------------------------------
// Fault matrix on the SPMD runtime
// ---------------------------------------------------------------------------

struct FaultyResult {
  std::vector<double> x;
  krylov::SolveStats stats;
  std::size_t injected = 0;  // summed over ranks
};

// solve_spmd (see spmd_solver_test.cpp) plus a per-rank fault injector
// installed for the duration of the team body.
FaultyResult solve_with_faults(const std::string& method,
                               const sparse::CsrMatrix& a, int ranks,
                               const krylov::SolverOptions& opts,
                               const std::vector<FaultSpec>& specs) {
  const std::size_t n = a.rows();
  const sparse::Partition part(n, ranks);
  FaultyResult result;
  result.x.assign(n, 0.0);
  std::mutex mutex;

  par::Team::run(ranks, [&](par::Comm& comm) {
    fault::Injector injector(specs, comm.rank());
    const fault::Injector::Install install(specs.empty() ? nullptr
                                                         : &injector);

    const sparse::DistCsr dist(a, part, comm.rank());
    const std::size_t begin = part.begin(comm.rank());
    const std::size_t len = part.local_size(comm.rank());

    const std::vector<double> full_diag = a.diagonal();
    std::vector<double> local_diag(
        full_diag.begin() + static_cast<std::ptrdiff_t>(begin),
        full_diag.begin() + static_cast<std::ptrdiff_t>(begin + len));
    sparse::OperatorStats st = a.stats();
    precond::JacobiPreconditioner local_pc(std::move(local_diag), st);

    const bool use_pc = krylov::solver_uses_preconditioner(method);
    krylov::SpmdEngine engine(comm, dist, use_pc ? &local_pc : nullptr);

    krylov::Vec ones = engine.new_vec();
    for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
    krylov::Vec b = engine.new_vec();
    engine.apply_op(ones, b);
    krylov::Vec x = engine.new_vec();

    const krylov::SolveStats stats =
        krylov::make_solver(method)->solve(engine, b, x, opts);
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (std::size_t i = 0; i < len; ++i) result.x[begin + i] = x[i];
      result.injected += injector.injected();
      if (comm.rank() == 0) result.stats = stats;
    }
  });
  return result;
}

// The solution of A x = A*ones is exactly ones, so "never false-converged"
// is checkable without a second operator application: a converged solve
// must have landed near the all-ones vector.
void expect_sane_outcome(const FaultyResult& r, const std::string& label) {
  if (r.stats.converged) {
    for (std::size_t i = 0; i < r.x.size(); ++i)
      ASSERT_NEAR(r.x[i], 1.0, 1e-2) << label << " i=" << i;
  } else {
    EXPECT_TRUE(r.stats.stagnated || r.stats.breakdown)
        << label << ": failed without a diagnostic flag";
  }
}

class FaultMatrixTest : public ::testing::TestWithParam<const char*> {
 protected:
  // Problem and fault indices mirror the empirically validated resilience
  // walkthrough (EXPERIMENTS.md): thermal2-like 32x32, rtol 1e-5, s = 3.
  sparse::CsrMatrix a_ = sparse::make_thermal2_like(32, 32);
  krylov::SolverOptions opts_;
  void SetUp() override {
    opts_.rtol = 1e-5;
    opts_.s = 3;
    opts_.max_iterations = 5000;
  }
};

TEST_P(FaultMatrixTest, SlowRankLeavesTrajectoryUntouched) {
  const std::string method = GetParam();
  const FaultyResult clean = solve_with_faults(method, a_, 3, opts_, {});
  const FaultyResult slow = solve_with_faults(
      method, a_, 3, opts_,
      fault::parse_fault_specs("rank=1:kind=slow:factor=3"));
  ASSERT_TRUE(clean.stats.converged) << method;
  ASSERT_TRUE(slow.stats.converged) << method;
  // A straggler perturbs timing only: same iteration history, same bits.
  EXPECT_EQ(slow.stats.history, clean.stats.history) << method;
  ASSERT_EQ(slow.x.size(), clean.x.size());
  for (std::size_t i = 0; i < clean.x.size(); ++i)
    ASSERT_EQ(slow.x[i], clean.x[i]) << method << " i=" << i;
  EXPECT_EQ(slow.stats.recoveries, 0u);
}

TEST_P(FaultMatrixTest, StalledAllreduceLeavesTrajectoryUntouched) {
  const std::string method = GetParam();
  const FaultyResult clean = solve_with_faults(method, a_, 3, opts_, {});
  const FaultyResult stalled = solve_with_faults(
      method, a_, 3, opts_,
      fault::parse_fault_specs("kind=stall:target=allreduce:iter=30:ms=50"));
  ASSERT_TRUE(stalled.stats.converged) << method;
  EXPECT_EQ(stalled.stats.history, clean.stats.history) << method;
  for (std::size_t i = 0; i < clean.x.size(); ++i)
    ASSERT_EQ(stalled.x[i], clean.x[i]) << method << " i=" << i;
  EXPECT_EQ(stalled.injected, 1u) << method;
}

TEST_P(FaultMatrixTest, SdcIsDetectedAndRecovered) {
  const std::string method = GetParam();
  const FaultyResult r = solve_with_faults(
      method, a_, 3, opts_,
      fault::parse_fault_specs("kind=sdc:target=spmv:iter=40:bit=61"));
  EXPECT_EQ(r.injected, 1u) << method;
  expect_sane_outcome(r, method + "/sdc");
  EXPECT_TRUE(r.stats.converged) << method << ": SDC should be survivable";
  EXPECT_GE(r.stats.recoveries, 1u)
      << method << ": corruption was never detected";
}

TEST_P(FaultMatrixTest, DeadRankNeverHangs) {
  const std::string method = GetParam();
  const par::ScopedWatchdog watchdog(800.0);
  // The dead rank's RankDeath (or a survivor's CommTimeout, whichever rank
  // is lowest) must surface as an exception; the watchdog bounds the wait.
  EXPECT_THROW(
      solve_with_faults(
          method, a_, 3, opts_,
          fault::parse_fault_specs("kind=die:rank=1:target=spmv:iter=10")),
      Error)
      << method;
}

INSTANTIATE_TEST_SUITE_P(Methods, FaultMatrixTest,
                         ::testing::Values("scg", "pscg", "pipe-scg",
                                           "pipe-pscg", "hybrid"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(FaultDeterminismTest, SameSpecSameSeedSameTrajectory) {
  const sparse::CsrMatrix a = sparse::make_thermal2_like(32, 32);
  krylov::SolverOptions opts;
  opts.rtol = 1e-5;
  opts.s = 3;
  const std::vector<FaultSpec> specs =
      fault::parse_fault_specs("kind=sdc:target=spmv:iter=40:bits=2:seed=7");
  const FaultyResult r1 = solve_with_faults("pipe-pscg", a, 3, opts, specs);
  const FaultyResult r2 = solve_with_faults("pipe-pscg", a, 3, opts, specs);
  EXPECT_EQ(r1.injected, r2.injected);
  EXPECT_EQ(r1.stats.recoveries, r2.stats.recoveries);
  ASSERT_EQ(r1.stats.history.size(), r2.stats.history.size());
  for (std::size_t i = 0; i < r1.stats.history.size(); ++i) {
    EXPECT_EQ(r1.stats.history[i].first, r2.stats.history[i].first);
    EXPECT_EQ(r1.stats.history[i].second, r2.stats.history[i].second);  // bits
  }
  ASSERT_EQ(r1.x.size(), r2.x.size());
  for (std::size_t i = 0; i < r1.x.size(); ++i)
    ASSERT_EQ(r1.x[i], r2.x[i]) << "non-deterministic at " << i;
}

TEST(FaultCleanRunTest, RecoveryOnIsBitwiseIdenticalToRecoveryOff) {
  const sparse::CsrMatrix a = sparse::make_thermal2_like(16, 16);
  krylov::SolverOptions base;
  base.rtol = 1e-6;
  base.s = 3;
  for (const char* method :
       {"scg", "pscg", "scg-sspmv", "pipe-scg", "pipe-pscg"}) {
    krylov::SolverOptions on = base, off = base;
    on.recovery = true;
    off.recovery = false;
    const FaultyResult with = solve_with_faults(method, a, 3, on, {});
    const FaultyResult without = solve_with_faults(method, a, 3, off, {});
    ASSERT_TRUE(with.stats.converged) << method;
    EXPECT_EQ(with.stats.iterations, without.stats.iterations) << method;
    EXPECT_EQ(with.stats.history, without.stats.history) << method;
    for (std::size_t i = 0; i < with.x.size(); ++i)
      ASSERT_EQ(with.x[i], without.x[i]) << method << " i=" << i;
    EXPECT_EQ(with.stats.recoveries, 0u) << method;
  }
}

// SDC during a batched drain: the column the flip corrupts rolls back on
// its own while the others keep iterating, so every job converges and
// every column the fault did not reach is bitwise its solo solve.
TEST(FaultBatchTest, SdcInABatchedDrainRollsBackOnlyTheHitColumn) {
  const sparse::CsrMatrix a = sparse::make_thermal2_like(32, 32);
  krylov::SolverOptions opts;
  opts.rtol = 1e-5;
  opts.s = 3;
  const std::size_t k = 3;
  const auto rhs = [&](std::size_t j) {
    std::vector<double> xstar(a.rows());
    for (std::size_t i = 0; i < xstar.size(); ++i)
      xstar[i] = 1.0 + 0.5 * std::sin(static_cast<double>(i + 5 * j + 1));
    std::vector<double> b(a.rows(), 0.0);
    a.apply(xstar, b);
    return b;
  };

  service::SessionConfig config;
  config.ranks = 2;
  service::Session clean(a, config);
  config.fault_specs =
      fault::parse_fault_specs("kind=sdc:target=spmv:iter=40:bit=61");
  service::Session faulty(a, config);
  std::vector<std::unique_ptr<service::SolveContext>> solo, batched;
  service::AdmissionQueue queue;
  for (std::size_t j = 0; j < k; ++j) {
    solo.push_back(
        std::make_unique<service::SolveContext>("scg-sspmv", rhs(j), opts));
    clean.solve(*solo.back());
    batched.push_back(
        std::make_unique<service::SolveContext>("scg-sspmv", rhs(j), opts));
    queue.submit(batched.back().get());
  }
  EXPECT_EQ(faulty.drain(queue), k);
  EXPECT_EQ(faulty.team_runs(), 1u);  // one batch

  std::size_t recovered = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const service::SolveContext& got = *batched[j];
    ASSERT_TRUE(got.converged()) << "column " << j << ": " << got.error();
    if (got.stats().recoveries > 0) {
      ++recovered;
      continue;
    }
    const service::SolveContext& want = *solo[j];
    EXPECT_EQ(got.stats().history, want.stats().history) << "column " << j;
    for (std::size_t i = 0; i < want.x().size(); ++i)
      ASSERT_EQ(got.x()[i], want.x()[i]) << "column " << j << " i=" << i;
  }
  EXPECT_GE(recovered, 1u) << "the flip was never detected";
  EXPECT_LT(recovered, k) << "one flip corrupts one column";
}

// A solver without rollback machinery still owes the user a clean stop:
// pipecg hit by loud SDC must flag breakdown/stagnation, not iterate on
// NaNs forever or claim convergence.
TEST(FaultDiagnosticTest, PipecgWithoutRecoveryStopsCleanly) {
  const sparse::CsrMatrix a = sparse::make_thermal2_like(16, 16);
  krylov::SolverOptions opts;
  opts.rtol = 1e-8;
  const FaultyResult r = solve_with_faults(
      "pipecg", a, 3, opts,
      fault::parse_fault_specs("kind=sdc:target=spmv:iter=10:bit=62"));
  EXPECT_EQ(r.injected, 1u);
  expect_sane_outcome(r, "pipecg/sdc");
}

}  // namespace
}  // namespace pipescg
