#include "pipescg/krylov/basis.hpp"

#include <algorithm>
#include <cmath>

#include "pipescg/base/cli.hpp"
#include "pipescg/base/error.hpp"
#include "pipescg/krylov/solver.hpp"

namespace pipescg::krylov {
namespace {

// Chebyshev extreme points of [lo, hi] in Leja order: first the largest
// magnitude point, then greedily the candidate maximizing the product of
// distances to the points already chosen (evaluated in log space so long
// products neither overflow nor underflow).  Leja ordering keeps the Newton
// basis well-conditioned at every intermediate degree, not just the last.
std::vector<double> leja_points(double lo, double hi, std::size_t count) {
  const std::size_t m = std::max<std::size_t>(count, 1);
  std::vector<double> candidates(m);
  if (m == 1) {
    candidates[0] = hi;
  } else {
    const double c = 0.5 * (hi + lo);
    const double e = 0.5 * (hi - lo);
    for (std::size_t i = 0; i < m; ++i) {
      const double t = std::cos(M_PI * static_cast<double>(i) /
                                static_cast<double>(m - 1));
      candidates[i] = c + e * t;
    }
  }
  std::vector<double> ordered;
  ordered.reserve(m);
  std::vector<bool> used(m, false);
  // Start at the largest-magnitude candidate (the hi end for SPD spectra).
  std::size_t first = 0;
  for (std::size_t i = 1; i < m; ++i)
    if (std::abs(candidates[i]) > std::abs(candidates[first])) first = i;
  used[first] = true;
  ordered.push_back(candidates[first]);
  while (ordered.size() < count) {
    std::size_t best = m;
    double best_log = -1e300;
    for (std::size_t i = 0; i < m; ++i) {
      if (used[i]) continue;
      double log_prod = 0.0;
      for (double x : ordered) {
        const double d = std::abs(candidates[i] - x);
        log_prod += std::log(std::max(d, 1e-300));
      }
      if (best == m || log_prod > best_log) {
        best = i;
        best_log = log_prod;
      }
    }
    used[best] = true;
    ordered.push_back(candidates[best]);
  }
  return ordered;
}

}  // namespace

BasisType parse_basis_type(const std::string& name) {
  if (name == "mono" || name == "monomial") return BasisType::kMonomial;
  if (name == "newton") return BasisType::kNewton;
  if (name == "chebyshev" || name == "cheb") return BasisType::kChebyshev;
  PIPESCG_FAIL("unknown basis '" + name +
               "' (expected mono|newton|chebyshev)");
}

std::string to_string(BasisType type) {
  switch (type) {
    case BasisType::kMonomial:
      return "monomial";
    case BasisType::kNewton:
      return "newton";
    case BasisType::kChebyshev:
      return "chebyshev";
  }
  return "monomial";
}

BasisSpec resolve_basis(Engine& engine, const BasisSpec& spec,
                        bool preconditioned) {
  BasisSpec out = spec;
  if (out.type == BasisType::kMonomial) return out;
  if (out.lambda_max <= 0.0) {
    // Deterministic power iteration on the operator the basis recurrences
    // run in (M^{-1}A for the preconditioned drivers).  All-ones start
    // vector so the estimate is independent of the rank layout; one
    // 3-scalar blocking dot batch per step (setup-only collectives).
    Vec v = engine.new_vec();
    Vec av = engine.new_vec();
    Vec bv = engine.new_vec();
    engine.set_all(v, 1.0);
    double lambda = 1.0;
    const int iters = std::max(1, out.power_iterations);
    for (int it = 0; it < iters; ++it) {
      engine.apply_op(v, av);
      const Vec* w = &av;
      if (preconditioned && engine.has_preconditioner()) {
        engine.apply_pc(av, bv);
        w = &bv;
      }
      const DotPair pairs[3] = {{&v, w}, {&v, &v}, {w, w}};
      double vals[3] = {0.0, 0.0, 0.0};
      engine.dots(std::span<const DotPair>(pairs, 3),
                  std::span<double>(vals, 3));
      if (!(vals[1] > 0.0) || !std::isfinite(vals[0]) ||
          !std::isfinite(vals[2]))
        break;
      lambda = vals[0] / vals[1];
      const double wn = std::sqrt(vals[2]);
      if (!(wn > 0.0) || !std::isfinite(wn)) break;
      engine.copy(*w, v);
      engine.scale(v, 1.0 / wn);
    }
    // The Rayleigh quotient approaches lambda_max from below; a 5% margin
    // covers the truncated iteration (the shifts only need to bracket the
    // spectrum, not pin it).
    out.lambda_max = std::abs(lambda) * 1.05;
  }
  PIPESCG_CHECK(std::isfinite(out.lambda_max) && out.lambda_max > 0.0,
                "basis spectrum estimation failed (lambda_max <= 0)");
  if (out.lambda_min <= 0.0)
    out.lambda_min = out.lambda_max / std::max(out.interval_ratio, 1.0);
  if (out.lambda_min >= out.lambda_max)
    out.lambda_min = out.lambda_max / 30.0;
  return out;
}

ShiftedBasis::ShiftedBasis(const BasisSpec& spec, int s)
    : type_(spec.type), s_(s) {
  PIPESCG_CHECK(s >= 1 && s <= 16, "s must be in [1, 16]");
  const std::size_t degrees = static_cast<std::size_t>(2 * s);
  gamma_.assign(degrees, 1.0);
  theta_.assign(degrees, 0.0);
  sigma_.assign(degrees, 0.0);
  if (type_ != BasisType::kMonomial) {
    lambda_min_ = spec.lambda_min;
    lambda_max_ = spec.lambda_max;
    PIPESCG_CHECK(std::isfinite(lambda_min_) && std::isfinite(lambda_max_) &&
                      lambda_min_ > 0.0 && lambda_max_ > lambda_min_,
                  "shifted basis needs a resolved positive spectrum interval "
                  "(see resolve_basis)");
    const double c = 0.5 * (lambda_max_ + lambda_min_);
    const double e = 0.5 * (lambda_max_ - lambda_min_);
    if (type_ == BasisType::kChebyshev) {
      for (std::size_t j = 0; j < degrees; ++j) theta_[j] = c;
      gamma_[0] = e;
      for (std::size_t j = 1; j < degrees; ++j) {
        gamma_[j] = 0.5 * e;
        sigma_[j] = 0.5 * e;
      }
    } else {  // Newton
      const std::vector<double> pts = leja_points(lambda_min_, lambda_max_,
                                                  degrees);
      for (std::size_t j = 0; j < degrees; ++j) {
        theta_[j] = pts[j];
        gamma_[j] = 0.5 * e;  // interval capacity (max - min) / 4
      }
    }
  }

  // Seed tables: coordinates of p_j(x) * x * p_c(x), built by coordinate
  // arithmetic.  mul_x maps coords through the recurrence
  // x p_d = gamma_d p_{d+1} + theta_d p_d + sigma_d p_{d-1}.
  const auto mul_x = [&](const std::vector<double>& q) {
    std::vector<double> out(q.size() + 1, 0.0);
    for (std::size_t d = 0; d < q.size(); ++d) {
      if (q[d] == 0.0) continue;
      out[d + 1] += gamma_[d] * q[d];
      out[d] += theta_[d] * q[d];
      if (d > 0) out[d - 1] += sigma_[d] * q[d];
    }
    return out;
  };
  const std::size_t su = static_cast<std::size_t>(s);
  seeds_.resize((su + 1) * su);
  for (std::size_t c = 0; c < su; ++c) {
    // q_k = p_k(x) * (x p_c(x)); q_{k+1} = ((x - theta_k) q_k
    //                                       - sigma_k q_{k-1}) / gamma_k.
    std::vector<double> unit(c + 1, 0.0);
    unit[c] = 1.0;
    std::vector<double> q_prev;
    std::vector<double> q_cur = mul_x(unit);
    seeds_[c] = q_cur;  // j = 0
    for (std::size_t k = 0; k + 1 <= su; ++k) {
      std::vector<double> next = mul_x(q_cur);
      for (std::size_t d = 0; d < q_cur.size(); ++d)
        next[d] -= theta_[k] * q_cur[d];
      if (k > 0)
        for (std::size_t d = 0; d < q_prev.size(); ++d)
          next[d] -= sigma_[k] * q_prev[d];
      const double inv = 1.0 / gamma_[k];
      for (double& x : next) x *= inv;
      q_prev = std::move(q_cur);
      q_cur = std::move(next);
      seeds_[(k + 1) * su + c] = q_cur;
    }
  }
}

std::span<const double> ShiftedBasis::seed(int j, int c) const {
  const std::size_t su = static_cast<std::size_t>(s_);
  PIPESCG_CHECK(j >= 0 && j <= s_ && c >= 0 && c < s_,
                "seed index out of range");
  return seeds_[static_cast<std::size_t>(j) * su +
                static_cast<std::size_t>(c)];
}

void extend_chain(Engine& engine, const ShiftedBasis& basis, ChainView cols,
                  std::size_t first, std::size_t count, Vec& scratch) {
  for (std::size_t d = first; d < first + count; ++d) {
    const int k = static_cast<int>(d) - 1;
    engine.apply_op(cols[d - 1], scratch);
    // One pass, bitwise equal to the copy/axpy/axpy/scale chain.
    engine.shift_combine(cols[d], scratch, basis.theta(k), cols[d - 1],
                         k > 0 ? basis.sigma(k) : 0.0,
                         k > 0 ? &cols[d - 2] : nullptr, basis.gamma(k));
  }
}

void extend_chain_pc(Engine& engine, const ShiftedBasis& basis, ChainView w,
                     ChainView v, std::size_t first, std::size_t count,
                     Vec& scratch) {
  for (std::size_t d = first; d < first + count; ++d) {
    const int k = static_cast<int>(d) - 1;
    engine.apply_op(v[d - 1], scratch);
    engine.shift_combine(w[d], scratch, basis.theta(k), w[d - 1],
                         k > 0 ? basis.sigma(k) : 0.0,
                         k > 0 ? &w[d - 2] : nullptr, basis.gamma(k));
    engine.apply_pc(w[d], v[d]);
  }
}

void combine_chain(Engine& engine, std::span<const double> coeffs,
                   ChainView cols, Vec& dst) {
  std::vector<const Vec*> terms;
  for (std::size_t d = 0; d < coeffs.size(); ++d) terms.push_back(&cols[d]);
  engine.lincomb(dst, nullptr, terms, coeffs, /*skip_zeros=*/true);
}

void apply_stability_cli(const CliParser& cli, SolverOptions& opts) {
  opts.basis.type = parse_basis_type(cli.str("basis"));
  opts.replacement_period = static_cast<int>(cli.integer("replace-every"));
  opts.gap_tol = cli.real("gap-tol");
}

}  // namespace pipescg::krylov
