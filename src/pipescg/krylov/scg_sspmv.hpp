// sCG with s SPMVs (paper Algorithm 4, Section IV-A).
//
// The stepping stone between sCG and PIPE-sCG: the explicit residual
// r = b - A x is replaced by the recurrence r <- r - (A P) alpha, removing
// the extra SPMV (s instead of s+1 per outer iteration).  The allreduce is
// still blocking -- pipelining comes in Algorithm 5.  Its file holds the
// shared blocking core (sstep::blocking_core), run here with the one-chain,
// recurred-residual policy.
#pragma once

#include "pipescg/krylov/solver.hpp"

namespace pipescg::krylov {

class ScgSspmvSolver final : public Solver {
 public:
  std::string name() const override { return "scg-sspmv"; }
  SolveStats solve(Engine& engine, const Vec& b, Vec& x,
                   const SolverOptions& opts) const override;
};

}  // namespace pipescg::krylov
