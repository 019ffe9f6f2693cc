#include "pipescg/krylov/scg.hpp"

#include <utility>

#include "pipescg/krylov/sstep_common.hpp"

namespace pipescg::krylov {

SolveStats ScgSolver::solve(Engine& engine, const Vec& b, Vec& x,
                           const SolverOptions& opts) const {
  return std::move(sstep::blocking_core(engine, {&b, 1}, {&x, 1}, opts,
                                        name(),
                                        {/*preconditioned=*/false,
                                         /*explicit_residual=*/true})[0]);
}

}  // namespace pipescg::krylov
