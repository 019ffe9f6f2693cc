// PIPE-PsCG: Pipelined Preconditioned s-step Conjugate Gradient
// (paper Algorithms 6 and 7 -- the primary contribution).
//
// One non-blocking allreduce per s CG-equivalent iterations, overlapped with
// the s PCs and s SPMVs that extend the power basis to (M^{-1}A)^{2s} u.
// Supports preconditioned, unpreconditioned, and natural residual norms
// without extra kernels (the norm dots ride in the same allreduce).
// pipe_pscg.cpp also holds the shared pipelined core (sstep::pipelined_core)
// that PIPE-sCG, PIPECG-OATI, PIPECG3 and Hybrid run with their policies.
#pragma once

#include "pipescg/krylov/solver.hpp"

namespace pipescg::krylov {

class PipePscgSolver final : public Solver {
 public:
  std::string name() const override { return "pipe-pscg"; }
  SolveStats solve(Engine& engine, const Vec& b, Vec& x,
                   const SolverOptions& opts) const override;
};

}  // namespace pipescg::krylov
