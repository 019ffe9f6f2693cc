#include "pipescg/krylov/pscg.hpp"

#include <cmath>
#include <utility>

#include "pipescg/base/error.hpp"
#include "pipescg/krylov/sstep_common.hpp"

namespace pipescg::krylov {

SolveStats PscgSolver::solve(Engine& engine, const Vec& b, Vec& x,
                             const SolverOptions& opts) const {
  using namespace sstep;
  SolveStats stats;
  stats.method = name();
  stats.b_norm = detail::compute_b_norm(engine, b, opts.norm);
  const double tol = detail::threshold(stats, opts);
  const int s = opts.s;
  const std::size_t su = static_cast<std::size_t>(s);

  // u-side powers v_j = (M^{-1}A)^j u; r-side powers w_j = (A M^{-1})^j r.
  VecBlock v = engine.new_block(su + 1), v_next = engine.new_block(su + 1);
  VecBlock wb = engine.new_block(su + 1), wb_next = engine.new_block(su + 1);
  // P (u-side) and its A-image (r-side) by recurrence.
  DirectionBlocks dir(engine, su);
  VectorBatch update(engine);

  // Setup (paper Alg. 3 lines 3-6): s+1 PCs, s+1 SPMVs.
  {
    Vec ax = engine.new_vec();
    engine.apply_op(x, ax);
    engine.waxpy(wb[0], -1.0, ax, b);
  }
  engine.apply_pc(wb[0], v[0]);
  for (std::size_t j = 1; j <= su; ++j) {
    engine.apply_op(v[j - 1], wb[j]);
    engine.apply_pc(wb[j], v[j]);
  }

  const DotLayout layout{s, /*preconditioned=*/true};
  std::vector<DotPair> pairs;
  std::vector<double> values(layout.total());
  build_dot_pairs(layout, wb, v, dir.ap_cur, pairs);  // AP zero: C = 0
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

    // P = V + P_prev B, its A-image from A v_c = w_{c+1}, and x += P alpha.
    dir.update(update, sw, iterations == 0, v, wb, nullptr, x);
    update.run();

    // Explicit rebuild: r, u, then the power basis (Alg. 3 lines 12-14):
    // s+1 SPMVs and s+1 PCs per outer iteration.
    {
      Vec ax = engine.new_vec();
      engine.apply_op(x, ax);
      engine.waxpy(wb_next[0], -1.0, ax, b);
    }
    engine.apply_pc(wb_next[0], v_next[0]);
    for (std::size_t j = 1; j <= su; ++j) {
      engine.apply_op(v_next[j - 1], wb_next[j]);
      engine.apply_pc(wb_next[j], v_next[j]);
    }

    build_dot_pairs(layout, wb_next, v_next, dir.ap_cur, pairs);
    engine.dots(pairs, values);

    iterations += su;
    rnorm = layout.norm(values, opts.norm);
    if (!detail::checkpoint(stats, opts, iterations, rnorm, 0, telem.take(s)))
      break;
    engine.mark_iteration(iterations - 1, rnorm);

    std::swap(v, v_next);
    std::swap(wb, wb_next);
    dir.advance();
  }

  stats.converged = rnorm < tol;
  stats.iterations = iterations;
  stats.final_rnorm = rnorm;
  detail::finalize_stats(engine, b, x, opts, stats);
  return stats;
}

}  // namespace pipescg::krylov
