// PsCG: Preconditioned s-step Conjugate Gradient (paper Algorithm 3,
// after Chronopoulos & Gear's multiprocessor formulation).
//
// One blocking allreduce per outer iteration, s+1 PCs and s+1 SPMVs: the
// residual and the preconditioned power basis are recomputed explicitly.
// Runs the shared blocking core (sstep::blocking_core) with the two-chain,
// explicit-residual policy.
#pragma once

#include "pipescg/krylov/solver.hpp"

namespace pipescg::krylov {

class PscgSolver final : public Solver {
 public:
  std::string name() const override { return "pscg"; }
  SolveStats solve(Engine& engine, const Vec& b, Vec& x,
                   const SolverOptions& opts) const override;
};

}  // namespace pipescg::krylov
