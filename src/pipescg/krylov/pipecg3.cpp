#include "pipescg/krylov/pipecg3.hpp"

#include "pipescg/krylov/sstep_common.hpp"

namespace pipescg::krylov {

SolveStats PipeCg3Solver::solve(Engine& engine, const Vec& b, Vec& x,
                                const SolverOptions& opts) const {
  // Period-8 basis rebuild: less drift control than PIPECG-OATI's period 4,
  // reflecting the original PIPECG3's weaker finite-precision accuracy
  // (three-term recurrences).
  SolverOptions tuned = opts;
  if (tuned.replacement_period == 0) tuned.replacement_period = 8;
  // Published FLOP count is 90 N per outer iteration (2 CG steps).
  return sstep::pipelined_core(engine, b, x, tuned, name(),
                               {/*s=*/2, /*preconditioned=*/true,
                                /*extra_flops_per_outer=*/24.0});
}

}  // namespace pipescg::krylov
