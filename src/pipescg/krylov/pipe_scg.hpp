// PIPE-sCG: Pipelined s-step Conjugate Gradient, unpreconditioned
// (paper Algorithm 5).
//
// One non-blocking allreduce per s iterations, overlapped with the s SPMVs
// that extend the basis to degree 2s.  Runs the shared pipelined core
// (sstep::pipelined_core) with the one-chain policy: a single basis S with
// towers T, no r-side/u-side twins -- half the memory and recurrence work
// of PIPE-PsCG, exactly as Alg. 5 relates to Alg. 6.
#pragma once

#include "pipescg/krylov/solver.hpp"

namespace pipescg::krylov {

class PipeScgSolver final : public Solver {
 public:
  std::string name() const override { return "pipe-scg"; }
  SolveStats solve(Engine& engine, const Vec& b, Vec& x,
                   const SolverOptions& opts) const override;
};

}  // namespace pipescg::krylov
