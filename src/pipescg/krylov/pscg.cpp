#include "pipescg/krylov/pscg.hpp"

#include <utility>

#include "pipescg/krylov/sstep_common.hpp"

namespace pipescg::krylov {

SolveStats PscgSolver::solve(Engine& engine, const Vec& b, Vec& x,
                            const SolverOptions& opts) const {
  return std::move(sstep::blocking_core(engine, {&b, 1}, {&x, 1}, opts,
                                        name(),
                                        {/*preconditioned=*/true,
                                         /*explicit_residual=*/true})[0]);
}

}  // namespace pipescg::krylov
