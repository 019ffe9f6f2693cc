// Solver framework: options, statistics, convergence tests.
//
// Conventions shared by all methods (following the paper, Section VI):
//  * the system is A x = b with SPD A (and SPD M when preconditioned);
//  * convergence:  ||res||_flavor < max(rtol * ||b||, atol)
//    where the flavor is the preconditioned (||u||), unpreconditioned
//    (||r||) or natural (sqrt((r, u))) residual norm -- one of PIPE-PsCG's
//    selling points is supporting all three without extra kernels;
//  * `iterations` counts CG-equivalent steps: one outer iteration of an
//    s-step method counts as s.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pipescg/krylov/basis.hpp"
#include "pipescg/krylov/engine.hpp"
#include "pipescg/obs/telemetry.hpp"

namespace pipescg::krylov {

enum class NormType { kPreconditioned, kUnpreconditioned, kNatural };

std::string to_string(NormType norm);

/// Passed to SolverOptions::monitor at every residual checkpoint.
struct IterationInfo {
  std::size_t iteration;  // CG-equivalent iteration count so far
  double rnorm;           // residual norm in the convergence-test flavor
};

struct SolverOptions {
  double rtol = 1e-5;
  double atol = 1e-300;
  std::size_t max_iterations = 20000;  // CG-equivalent steps
  int s = 3;                           // depth for the s-step methods
  NormType norm = NormType::kPreconditioned;

  // s-step basis construction (monomial | Newton | Chebyshev; see
  // krylov/basis.hpp).  Shifted bases keep the basis Gram matrix
  // well-conditioned at depths where the monomial powers collapse, with the
  // same SPMV count and an unchanged allreduce schedule (the dot-batch
  // payload grows from 2s+1 to (s+1)(s+2)/2 scalars).  Unset interval
  // bounds are estimated at solve setup (resolve_basis).
  BasisSpec basis;

  // Stagnation detection (pipelined s-step variants; drives Hybrid).
  // Declared stagnated when the residual norm fails to improve by at least
  // `stall_improvement` over `stall_window` consecutive *honest* residual
  // checkpoints (truth-anchored iterations when replacement is active).
  bool detect_stagnation = false;
  double stall_improvement = 0.995;
  int stall_window = 12;

  // Pipelined s-step variants: rebuild the power basis explicitly from the
  // recurred residual every `replacement_period` outer iterations, bounding
  // the drift of the tower recurrences (reliable-update technique; costs s
  // extra SPMVs+PCs per replacement, honestly recorded in the trace).
  //   0  = auto: period 16 at every s under a Newton or Chebyshev basis;
  //        monomial: 16 for s <= 3 (truth anchoring), 4 at s = 4, 1 at
  //        s >= 5 (measured stability limits)
  //   <0 = always disabled (pure recurrences, exactly the paper's Alg. 5/6)
  //   >0 = explicit period
  int replacement_period = 0;

  // Residual gap monitor (s-step drivers): every `gap_check_period` outer
  // iterations compute the true residual b - A x (one extra SPMV, plus one
  // PC for the preconditioned flavors) and ride its norm dot on the NEXT
  // posted batch -- no extra allreduce, the per-outer-iteration collective
  // count is unchanged.  When |recurred - true| / true exceeds `gap_tol`
  // the driver forces a residual replacement (van der Vorst); when two
  // consecutive gap-triggered replacements fail to close the gap it
  // escalates to the RecoveryManager degrade-s path.  gap_tol <= 0
  // disables the monitor (default); gap_check_period 0 = auto (every 8
  // outer iterations).
  double gap_tol = 0.0;
  int gap_check_period = 0;

  // Compute ||b - A x|| at the end (costs one extra SPMV; off for benches
  // so traces stay clean).
  bool compute_true_residual = false;

  // PCG only: fuse the gamma and norm dot products into one allreduce
  // (PETSc-style).  Default false to match the paper's 3-allreduce count.
  bool fuse_cg_dots = false;

  // PCG only: estimate the extreme eigenvalues of the preconditioned
  // operator from the Lanczos tridiagonal that CG builds implicitly
  // (PETSc KSPSetComputeEigenvalues-style; free, no extra kernels).
  bool estimate_spectrum = false;

  // s-step / pipelined s-step drivers: checkpoint the iterate on residual
  // improvement and, when a fault is detected (non-finite reduced batch,
  // singular scalar work, runaway divergence), roll back to the checkpoint
  // and restart the outer loop instead of aborting.  A clean run with
  // recovery on is bitwise identical to one with it off (checkpoints are
  // raw copies outside the engine kernel interface).  After two consecutive
  // restarts with no progress the driver degrades s -> max(1, s-1).
  bool recovery = true;
  int max_recoveries = 8;  // rollback budget before giving up

  // Called at every residual checkpoint (PETSc KSPMonitor-style).  On the
  // SPMD engine the callback runs on every rank.
  std::function<void(const IterationInfo&)> monitor;
};

struct SolveStats {
  std::string method;
  bool converged = false;
  bool stagnated = false;   // residual stalled before reaching the tolerance
  bool breakdown = false;   // scalar-work failure (singular s x s system)
  std::size_t iterations = 0;
  double b_norm = 0.0;
  double final_rnorm = 0.0;  // in the convergence-test flavor
  double true_residual = -1.0;
  // Lanczos estimates of the preconditioned operator's extreme eigenvalues
  // and condition number (PCG with estimate_spectrum; -1 when not computed).
  double lambda_min_est = -1.0;
  double lambda_max_est = -1.0;
  double condition_est = -1.0;
  // Fault recovery (s-step drivers with SolverOptions::recovery): how many
  // rollback-restarts happened and the s the solver finished with (0 when
  // the method has no s parameter).
  std::size_t recoveries = 0;
  int final_s = 0;
  // Basis / residual-gap monitor telemetry (s-step drivers).  `basis` is
  // the basis family the solve ran with; the lambda bounds are the resolved
  // shift interval (0 for the monomial basis).  `replacements` counts every
  // residual replacement (scheduled, verified-acceptance and gap-triggered);
  // gap fields are -1 until the monitor performs a check.
  std::string basis;
  double basis_lambda_min = 0.0;
  double basis_lambda_max = 0.0;
  std::size_t replacements = 0;
  std::size_t gap_checks = 0;
  std::size_t failed_replacements = 0;
  std::size_t gram_breakdowns = 0;  // soft-failed non-SPD scalar-work solves
  double last_residual_gap = -1.0;
  double max_residual_gap = -1.0;
  // (CG-equivalent iteration, residual norm) at every check point.
  std::vector<std::pair<std::size_t, double>> history;
};

class Solver {
 public:
  virtual ~Solver() = default;
  virtual std::string name() const = 0;
  /// Solve A x = b starting from the provided x (initial guess).
  virtual SolveStats solve(Engine& engine, const Vec& b, Vec& x,
                           const SolverOptions& opts) const = 0;
};

namespace detail {

/// Convergence reference: ||b|| measured in the *same flavor* as the
/// residual norm the test uses (||M^{-1}b|| for the preconditioned norm,
/// sqrt(b^T M^{-1} b) for the natural norm), so rtol means the same thing
/// across flavors.  One entry per right-hand side of `bs`, from one fused
/// setup dot batch (plus one PC application per column for the
/// preconditioned/natural flavors).  Every driver calls it first, so it also
/// marks the solve's start on the rank's obs::Profiler (begin_solve).
std::vector<double> compute_b_norm(Engine& engine, std::span<const Vec> bs,
                                   NormType norm);

/// Convergence threshold per the convention above.
double threshold(const SolveStats& stats, const SolverOptions& opts);

/// Fill stats.true_residual when requested.
void finalize_stats(Engine& engine, const Vec& b, const Vec& x,
                    const SolverOptions& opts, SolveStats& stats);

/// The one residual checkpoint every driver makes: append to the history,
/// feed every installed observer (obs::checkpoint) and fire the monitor.
/// Returns false -- after flagging stats.breakdown -- when rnorm is not
/// finite: the recurrences have been destroyed (overflow, SDC, division by
/// a vanished scalar) and every subsequent iterate would be garbage, so
/// callers must stop (or roll back) instead of iterating on NaNs.
/// `column` identifies the right-hand side in a batched multi-RHS solve
/// (0 for single-RHS drivers), so per-column observers keep the k residual
/// streams apart.  `readings` carries an s-step driver's scalar-work
/// readings (s, alpha, ||B||_F, gap); the identity fields are filled here.
bool checkpoint(SolveStats& stats, const SolverOptions& opts,
                std::size_t iteration, double rnorm, std::size_t column = 0,
                obs::Checkpoint readings = {});

/// Divergence detector shared by the pipelined s-step drivers: tracks the
/// best residual norm seen and declares divergence when the current norm is
/// non-finite or has grown 1e4x past the best (plus an absolute allowance
/// of 1e3x the initial norm, so early wobble on hard problems is ignored).
class DivergenceDetector {
 public:
  explicit DivergenceDetector(double initial_rnorm)
      : initial_(initial_rnorm) {}

  /// Feed one residual norm; returns true when the solve has diverged.
  /// The best-so-far updates *before* the test, matching the historical
  /// inline guard: a new best never counts as divergence.
  bool update(double rnorm) {
    if (!std::isfinite(rnorm)) return true;
    if (best_ < 0.0 || rnorm < best_) best_ = rnorm;
    return rnorm > 1e4 * best_ + 1e3 * initial_;
  }

  double best() const { return best_; }

 private:
  double initial_;
  double best_ = -1.0;
};

/// Sliding-window stagnation detector.
class StallDetector {
 public:
  StallDetector(double improvement, int window)
      : improvement_(improvement), window_(window) {}

  /// Feed one residual norm; returns true once stagnation is declared.
  bool update(double rnorm);

 private:
  double improvement_;
  int window_;
  double best_ = -1.0;
  int since_improvement_ = 0;
};

}  // namespace detail
}  // namespace pipescg::krylov
