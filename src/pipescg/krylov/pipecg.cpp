#include "pipescg/krylov/pipecg.hpp"

#include <cmath>
#include <optional>

#include "pipescg/base/error.hpp"

namespace pipescg::krylov {

SolveStats PipeCgSolver::solve(Engine& engine, const Vec& b, Vec& x,
                               const SolverOptions& opts) const {
  SolveStats stats;
  stats.method = name();
  stats.b_norm = detail::compute_b_norm(engine, {&b, 1}, opts.norm)[0];

  Vec r = engine.new_vec();  // residual
  Vec u = engine.new_vec();  // M^{-1} r
  Vec w = engine.new_vec();  // A u
  Vec m = engine.new_vec();  // M^{-1} w
  Vec n = engine.new_vec();  // A m
  Vec p = engine.new_vec();  // direction
  Vec s = engine.new_vec();  // A p
  Vec q = engine.new_vec();  // M^{-1} s
  Vec z = engine.new_vec();  // A q
  Vec ax = engine.new_vec();

  engine.apply_op(x, ax);
  engine.waxpy(r, -1.0, ax, b);
  engine.apply_pc(r, u);
  engine.apply_op(u, w);

  const double tol_ref = detail::threshold(stats, opts);

  double gamma_prev = 0.0, alpha_prev = 0.0;
  double rnorm = 0.0;
  std::size_t iter = 0;
  // The pipelined recurrences have no self-correction: after an upset (SDC,
  // overflow) the residual can sit at a huge-but-finite plateau that the
  // NaN guard never sees.  Detect the runaway and stop with a diagnostic
  // instead of silently burning max_iterations.
  std::optional<detail::DivergenceDetector> diverge;
  bool done = false;
  while (!done) {
    // Post (gamma, delta, norm^2) and overlap with m = M^{-1} w, n = A m.
    const Vec& nx = opts.norm == NormType::kPreconditioned ? u : r;
    const Vec& ny = opts.norm == NormType::kUnpreconditioned ? r : u;
    const DotPair pairs[3] = {{&r, &u}, {&w, &u}, {&nx, &ny}};
    DotHandle h = engine.dot_post(std::span<const DotPair>(pairs, 3));

    engine.apply_pc(w, m);
    engine.apply_op(m, n);

    double vals[3];
    engine.dot_wait(h, std::span<double>(vals, 3));
    const double gamma = vals[0];
    const double delta = vals[1];
    rnorm = std::sqrt(std::max(vals[2], 0.0));
    if (!detail::checkpoint(stats, opts, iter, rnorm)) break;
    if (iter > 0) engine.mark_iteration(iter - 1, rnorm);
    if (!diverge) diverge.emplace(rnorm);
    if (diverge->update(rnorm)) {
      stats.stagnated = true;
      break;
    }

    if (rnorm < tol_ref) {
      stats.converged = true;
      break;
    }
    if (iter >= opts.max_iterations) break;

    double beta, alpha;
    if (iter == 0) {
      beta = 0.0;
      alpha = gamma / delta;
    } else {
      beta = gamma / gamma_prev;
      const double denom = delta - beta * gamma / alpha_prev;
      if (denom == 0.0 || !std::isfinite(denom)) {
        stats.breakdown = true;
        break;
      }
      alpha = gamma / denom;
    }
    if (!std::isfinite(alpha)) {
      stats.breakdown = true;
      break;
    }

    engine.aypx(z, beta, n);  // z = n + beta z
    engine.aypx(q, beta, m);  // q = m + beta q
    engine.aypx(p, beta, u);  // p = u + beta p
    engine.aypx(s, beta, w);  // s = w + beta s
    engine.axpy(x, alpha, p);
    engine.axpy(r, -alpha, s);
    engine.axpy(u, -alpha, q);
    engine.axpy(w, -alpha, z);

    gamma_prev = gamma;
    alpha_prev = alpha;
    ++iter;
  }

  stats.iterations = iter;
  stats.final_rnorm = rnorm;
  detail::finalize_stats(engine, b, x, opts, stats);
  return stats;
}

}  // namespace pipescg::krylov
