// Batched multi-RHS s-step CG: k independent systems A x_i = b_i against
// the SAME operator, advanced in lockstep with their per-iteration dot
// batches FUSED into one allreduce.
//
// This is the reduction-side analogue of the paper's s-step argument: an
// s-step method amortizes one global reduction over s iterations of one
// solve; the batched driver amortizes one global reduction over k *solves*.
// Per outer iteration every active column performs its own basis build
// (s SPMVs, one halo epoch each when a matrix-powers kernel is attached)
// and contributes its 2s+1 moments + s x s Gram cross block to a single
// widened payload of k * (2s+1 + s^2) doubles -- one allreduce latency paid
// where k independent solves would pay k.
//
// Column-wise equivalence: the fixed-order allreduce reduces every payload
// entry independently, so each column's reduced values -- and therefore its
// entire iterate trajectory -- are BITWISE IDENTICAL to the same solve run
// alone through ScgSspmvSolver (clean runs; the batched driver freezes a
// column on breakdown instead of rolling it back, so runs that would need
// fault recovery differ).  Columns that converge simply stop contributing
// to the payload while the rest keep iterating.
//
// Used by service::Session to batch compatible admission-queue requests;
// see DESIGN.md section 12.
#pragma once

#include <span>
#include <vector>

#include "pipescg/krylov/solver.hpp"

namespace pipescg::krylov {

/// Largest k the batched driver accepts at block depth s: the fused payload
/// k * (2s+1 + s^2) must fit one par::Team allreduce (kMaxPayload doubles).
/// A shifted (Newton/Chebyshev) basis widens the Gram payload to
/// k * ((s+1)(s+2)/2 + s^2).
std::size_t max_batch_columns(int s, bool shifted_basis);

/// Solve A x_i = b_i for every column i in lockstep (method "scg-sspmv",
/// paper Alg. 4, basis builds through Engine::apply_op_powers).  `bs` and
/// `xs` must have equal size <= max_batch_columns(opts.s, shifted); xs
/// carries the initial guesses and receives the solutions.  Returns one
/// SolveStats per column, each equivalent to an independent single-RHS
/// solve (bitwise on clean runs -- see the header comment).  Unlike the single-RHS drivers
/// the batched driver does not roll back on detected faults: a column whose
/// scalar work fails or whose residual goes non-finite is frozen with
/// breakdown flagged, and the remaining columns continue.  Nor does it run
/// the residual-gap monitor: opts.gap_tol > 0 throws pipescg::Error.
std::vector<SolveStats> scg_multi_solve(Engine& engine,
                                        std::span<const Vec> bs,
                                        std::span<Vec> xs,
                                        const SolverOptions& opts);

}  // namespace pipescg::krylov
