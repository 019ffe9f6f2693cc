#include "pipescg/krylov/scg.hpp"

#include "pipescg/krylov/sstep_common.hpp"

namespace pipescg::krylov {

SolveStats ScgSolver::solve(Engine& engine, const Vec& b, Vec& x,
                           const SolverOptions& opts) const {
  return sstep::blocking_core(engine, b, x, opts, name(),
                              {/*preconditioned=*/false,
                               /*explicit_residual=*/true});
}

}  // namespace pipescg::krylov
