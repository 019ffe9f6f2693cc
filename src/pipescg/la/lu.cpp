#include "pipescg/la/lu.hpp"

#include <cmath>
#include <utility>

namespace pipescg::la {

LuFactorization::LuFactorization(DenseMatrix a) : lu_(std::move(a)) {
  PIPESCG_CHECK(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest |a_ik| in column k at/below row k.
    std::size_t piv = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    PIPESCG_CHECK(best > 0.0 && std::isfinite(best),
                  "LU pivot is zero or non-finite: matrix is singular");
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j)
        std::swap(lu_(k, j), lu_(piv, j));
      std::swap(perm_[k], perm_[piv]);
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double l = lu_(i, k) * inv_pivot;
      lu_(i, k) = l;
      if (l == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= l * lu_(k, j);
    }
  }
}

std::vector<double> LuFactorization::solve(const std::vector<double>& b) const {
  const std::size_t n = dim();
  PIPESCG_CHECK(b.size() == n, "LU solve rhs size mismatch");
  std::vector<double> x(n);
  // Apply permutation, forward substitution with unit-lower L.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

DenseMatrix LuFactorization::solve(const DenseMatrix& b) const {
  PIPESCG_CHECK(b.rows() == dim(), "LU solve rhs rows mismatch");
  DenseMatrix x(b.rows(), b.cols());
  std::vector<double> col(b.rows());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
    const std::vector<double> sol = solve(col);
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = sol[i];
  }
  return x;
}

std::vector<double> lu_solve(const DenseMatrix& a,
                             const std::vector<double>& b) {
  return LuFactorization(a).solve(b);
}

}  // namespace pipescg::la
