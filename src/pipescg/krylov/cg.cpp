#include "pipescg/krylov/cg.hpp"

#include <cmath>
#include <vector>

#include "pipescg/base/error.hpp"
#include "pipescg/la/tridiagonal.hpp"

namespace pipescg::krylov {

SolveStats CgSolver::solve(Engine& engine, const Vec& b, Vec& x,
                           const SolverOptions& opts) const {
  SolveStats stats;
  stats.method = name();
  stats.b_norm = detail::compute_b_norm(engine, {&b, 1}, opts.norm)[0];

  Vec r = engine.new_vec();
  Vec u = engine.new_vec();
  Vec p = engine.new_vec();
  Vec s = engine.new_vec();
  Vec ax = engine.new_vec();

  // r0 = b - A x0; u0 = M^{-1} r0.
  engine.apply_op(x, ax);
  engine.waxpy(r, -1.0, ax, b);
  engine.apply_pc(r, u);

  auto residual_norms = [&](double& gamma, double& norm_sq) {
    // gamma = (u, r); norm_sq in the requested flavor.
    if (opts.fuse_cg_dots) {
      const Vec& nx = opts.norm == NormType::kPreconditioned ? u : r;
      const Vec& ny = opts.norm == NormType::kUnpreconditioned ? r : u;
      // Pairs: (u, r) and flavor norm; natural flavor reuses gamma.
      const DotPair pairs[2] = {{&u, &r}, {&nx, &ny}};
      double vals[2];
      engine.dots(std::span<const DotPair>(pairs, 2),
                  std::span<double>(vals, 2));
      gamma = vals[0];
      norm_sq = vals[1];
    } else {
      gamma = engine.dot(u, r);
      switch (opts.norm) {
        case NormType::kPreconditioned:
          norm_sq = engine.dot(u, u);
          break;
        case NormType::kUnpreconditioned:
          norm_sq = engine.dot(r, r);
          break;
        case NormType::kNatural:
          // One more allreduce anyway, to keep the Table-I count of 3.
          norm_sq = engine.dot(u, r);
          break;
      }
    }
  };

  double gamma = 0.0, norm_sq = 0.0;
  residual_norms(gamma, norm_sq);
  double rnorm = std::sqrt(std::max(norm_sq, 0.0));
  const double tol = detail::threshold(stats, opts);
  detail::checkpoint(stats, opts, 0, rnorm);

  double gamma_prev = 0.0;
  std::size_t iter = 0;
  // Lanczos coefficients for the spectrum estimate (CG's alphas/betas build
  // the Lanczos tridiagonal implicitly).
  std::vector<double> alphas, betas;
  while (rnorm >= tol && iter < opts.max_iterations) {
    const double beta = iter == 0 ? 0.0 : gamma / gamma_prev;
    // p = u + beta p
    engine.aypx(p, beta, u);
    // s = A p
    engine.apply_op(p, s);
    const double delta = engine.dot(s, p);
    if (delta <= 0.0 || !std::isfinite(delta)) {
      stats.breakdown = true;
      break;
    }
    const double alpha = gamma / delta;
    if (opts.estimate_spectrum) {
      alphas.push_back(alpha);
      betas.push_back(beta);
    }
    engine.axpy(x, alpha, p);
    engine.axpy(r, -alpha, s);
    engine.apply_pc(r, u);

    gamma_prev = gamma;
    residual_norms(gamma, norm_sq);
    rnorm = std::sqrt(std::max(norm_sq, 0.0));
    ++iter;
    if (!detail::checkpoint(stats, opts, iter, rnorm)) break;
    engine.mark_iteration(iter - 1, rnorm);
  }

  stats.iterations = iter;
  stats.final_rnorm = rnorm;
  stats.converged = rnorm < tol;
  if (opts.estimate_spectrum && alphas.size() >= 2) {
    // T(i,i) = 1/alpha_i + beta_i/alpha_{i-1};
    // T(i,i+1) = sqrt(beta_{i+1}) / alpha_i.
    const std::size_t m = alphas.size();
    std::vector<double> diag(m), off(m - 1);
    for (std::size_t i = 0; i < m; ++i) {
      diag[i] = 1.0 / alphas[i];
      if (i > 0) diag[i] += betas[i] / alphas[i - 1];
      if (i + 1 < m) off[i] = std::sqrt(betas[i + 1]) / alphas[i];
    }
    const auto [lmin, lmax] = la::tridiagonal_extreme_eigenvalues(diag, off);
    stats.lambda_min_est = lmin;
    stats.lambda_max_est = lmax;
    if (lmin > 0.0) stats.condition_est = lmax / lmin;
  }
  detail::finalize_stats(engine, b, x, opts, stats);
  return stats;
}

}  // namespace pipescg::krylov
