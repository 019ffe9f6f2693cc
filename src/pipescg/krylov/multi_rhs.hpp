// Batched multi-RHS s-step CG: k independent systems A x_i = b_i against
// the SAME operator, run as k columns of the blocking s-step core with
// their per-iteration dot batches FUSED into one allreduce.
//
// This is the reduction-side analogue of the paper's s-step argument: an
// s-step method amortizes one global reduction over s iterations of one
// solve; the batched driver amortizes one global reduction over k *solves*.
// Per outer iteration every live column performs its own basis build
// (s SPMVs, one halo epoch each when a matrix-powers kernel is attached)
// and contributes its 2s+1 moments + s x s Gram cross block (plus its
// gap-check dot when one is due) to a single widened payload -- one
// allreduce latency paid where k independent solves would pay k.
//
// Column-wise equivalence: the fixed-order allreduce reduces every payload
// entry independently, and each column rolls back, degrades s and runs the
// residual-gap monitor on its own (sstep::blocking_core), so each column's
// entire trajectory is BITWISE IDENTICAL to the same solve run alone through
// ScgSspmvSolver -- faults and gap escalations included.  A finished column
// drops out of the payload while the rest keep iterating.
//
// Used by service::Session to batch compatible admission-queue requests;
// see DESIGN.md section 12.
#pragma once

#include <span>
#include <vector>

#include "pipescg/krylov/solver.hpp"

namespace pipescg::krylov {

/// Largest k the batched driver accepts under `opts`: the fused payload of
/// k columns at block depth opts.s -- k * (2s+1 + s^2), or k * ((s+1)(s+2)/2
/// + s^2) under a shifted (Newton/Chebyshev) basis, plus one gap-check dot
/// per column when opts.gap_tol > 0 -- must fit one par::Team allreduce
/// (kMaxPayload doubles).
std::size_t max_batch_columns(const SolverOptions& opts);

/// Solve A x_i = b_i for every column i (method "scg-sspmv", paper Alg. 4,
/// basis builds through Engine::apply_op_powers) with fused dot batches.
/// `bs` and `xs` must have equal size <= max_batch_columns(opts); xs carries
/// the initial guesses and receives the solutions.  Returns one SolveStats
/// per column, each bitwise equal to an independent single-RHS solve.
std::vector<SolveStats> scg_multi_solve(Engine& engine,
                                        std::span<const Vec> bs,
                                        std::span<Vec> xs,
                                        const SolverOptions& opts);

}  // namespace pipescg::krylov
