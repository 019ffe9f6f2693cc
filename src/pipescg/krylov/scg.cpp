#include "pipescg/krylov/scg.hpp"

#include <cmath>
#include <utility>

#include "pipescg/base/error.hpp"
#include "pipescg/krylov/sstep_common.hpp"

namespace pipescg::krylov {

SolveStats ScgSolver::solve(Engine& engine, const Vec& b, Vec& x,
                            const SolverOptions& opts) const {
  using namespace sstep;
  SolveStats stats;
  stats.method = name();
  stats.b_norm = detail::compute_b_norm(engine, b, opts.norm);
  const double tol = detail::threshold(stats, opts);
  const int s = opts.s;
  const std::size_t su = static_cast<std::size_t>(s);

  VecBlock basis = engine.new_block(su + 1),
           basis_next = engine.new_block(su + 1);
  DirectionBlocks dir(engine, su);
  VectorBatch update(engine);

  // Setup: basis of r_0 (paper Alg. 2 lines 3-5).
  {
    Vec ax = engine.new_vec();
    engine.apply_op(x, ax);
    engine.waxpy(basis[0], -1.0, ax, b);
  }
  for (std::size_t j = 1; j <= su; ++j)
    engine.apply_op(basis[j - 1], basis[j]);

  const DotLayout layout{s, /*preconditioned=*/false};
  std::vector<DotPair> pairs;
  std::vector<double> values(layout.total());
  build_dot_pairs(layout, basis, basis, dir.ap_cur, pairs);  // AP zero: C = 0
  engine.dots(pairs, values);

  ScalarWork scalar_work(s);
  TelemetrySnapshot telem;
  std::size_t iterations = 0;
  double rnorm = layout.norm(values, opts.norm);
  detail::checkpoint(stats, opts, 0, rnorm, 0, telem.take(s));

  while (rnorm >= tol && iterations < opts.max_iterations) {
    const ScalarWork::Result sw = scalar_work.step(layout, values);
    if (!sw.ok) {
      stats.breakdown = true;
      stats.stagnated = true;
      break;
    }
    telem.capture(sw);
    // Direction block and its A-image (paper Alg. 2 lines 9-10; the A-image
    // recurrence adds only linear-combination work, no SPMV), then
    // x_{i+1} = x_i + P alpha (Alg. 2 line 10).
    dir.update(update, sw, iterations == 0, basis, basis, nullptr, x);
    update.run();

    // Explicit residual and basis rebuild: s+1 SPMVs (Alg. 2 lines 11-12).
    {
      Vec ax = engine.new_vec();
      engine.apply_op(x, ax);
      engine.waxpy(basis_next[0], -1.0, ax, b);
    }
    for (std::size_t j = 1; j <= su; ++j)
      engine.apply_op(basis_next[j - 1], basis_next[j]);

    // One blocking allreduce for all 2s+1 moments + cross (Alg. 2 line 13).
    build_dot_pairs(layout, basis_next, basis_next, dir.ap_cur, pairs);
    engine.dots(pairs, values);

    iterations += su;
    rnorm = layout.norm(values, opts.norm);
    if (!detail::checkpoint(stats, opts, iterations, rnorm, 0, telem.take(s)))
      break;
    engine.mark_iteration(iterations - 1, rnorm);

    std::swap(basis, basis_next);
    dir.advance();
  }

  stats.converged = rnorm < tol;
  stats.iterations = iterations;
  stats.final_rnorm = rnorm;
  detail::finalize_stats(engine, b, x, opts, stats);
  return stats;
}

}  // namespace pipescg::krylov
