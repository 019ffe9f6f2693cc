// sCG: the s-step Conjugate Gradient of Chronopoulos & Gear
// (paper Algorithm 2).
//
// One *blocking* allreduce per outer iteration (= s CG steps), s+1 SPMVs per
// outer iteration: the residual is recomputed explicitly as r = b - A x
// before the s basis powers are formed.  Runs the shared blocking core
// (sstep::blocking_core) with the one-chain, explicit-residual policy.
#pragma once

#include "pipescg/krylov/solver.hpp"

namespace pipescg::krylov {

class ScgSolver final : public Solver {
 public:
  std::string name() const override { return "scg"; }
  SolveStats solve(Engine& engine, const Vec& b, Vec& x,
                   const SolverOptions& opts) const override;
};

}  // namespace pipescg::krylov
