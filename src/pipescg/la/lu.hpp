// LU factorization with partial pivoting for small dense systems.
//
// The s-step methods solve two s x s systems per outer iteration ("scalar
// work" in the paper, Alg. 2 line 7).  The paper uses LU for these; so do we.
#pragma once

#include <vector>

#include "pipescg/la/dense_matrix.hpp"

namespace pipescg::la {

/// Factorization PA = LU stored compactly; reusable for multiple right-hand
/// sides.  Throws pipescg::Error if the matrix is numerically singular.
class LuFactorization {
 public:
  explicit LuFactorization(DenseMatrix a);

  std::size_t dim() const { return lu_.rows(); }

  /// Solve A x = b.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solve A X = B column-wise.
  DenseMatrix solve(const DenseMatrix& b) const;

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
};

/// One-shot convenience: solve A x = b.
std::vector<double> lu_solve(const DenseMatrix& a, const std::vector<double>& b);

}  // namespace pipescg::la
