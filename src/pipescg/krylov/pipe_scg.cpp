#include "pipescg/krylov/pipe_scg.hpp"

#include "pipescg/krylov/sstep_common.hpp"

namespace pipescg::krylov {

SolveStats PipeScgSolver::solve(Engine& engine, const Vec& b, Vec& x,
                                const SolverOptions& opts) const {
  return sstep::pipelined_core(engine, b, x, opts, name(),
                               {opts.s, /*preconditioned=*/false});
}

}  // namespace pipescg::krylov
