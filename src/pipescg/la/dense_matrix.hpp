// Small dense matrices (row-major) for the s-step "scalar work" (two s x s
// solves per outer iteration) and for multigrid coarse-grid direct solves.
//
// These matrices are tiny (s <= ~8 for the scalar work, a few hundred for
// coarse grids), so clarity beats blocking/tiling here.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "pipescg/base/error.hpp"

namespace pipescg::la {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Row-major initializer: DenseMatrix(2, 2, {a, b, c, d}).
  DenseMatrix(std::size_t rows, std::size_t cols,
              std::initializer_list<double> values);

  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// this = this + alpha * other (same shape).
  void add_scaled(const DenseMatrix& other, double alpha);

  DenseMatrix transposed() const;

  /// Matrix-matrix product (checked shapes).
  friend DenseMatrix operator*(const DenseMatrix& a, const DenseMatrix& b);

  /// y = A x for dense vectors.
  std::vector<double> apply(const std::vector<double>& x) const;

  /// Max |a_ij - b_ij|; shapes must match.
  static double max_abs_diff(const DenseMatrix& a, const DenseMatrix& b);

  /// Symmetrize in place: A <- (A + A^T)/2.  Requires square.
  void symmetrize();

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace pipescg::la
