#include "pipescg/la/dense_matrix.hpp"

#include <algorithm>
#include <cmath>

namespace pipescg::la {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols,
                         std::initializer_list<double> values)
    : rows_(rows), cols_(cols), data_(values) {
  PIPESCG_CHECK(values.size() == rows * cols,
                "initializer size does not match matrix shape");
}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void DenseMatrix::add_scaled(const DenseMatrix& other, double alpha) {
  PIPESCG_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
                "add_scaled shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] += alpha * other.data_[i];
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

DenseMatrix operator*(const DenseMatrix& a, const DenseMatrix& b) {
  PIPESCG_CHECK(a.cols_ == b.rows_, "matmul shape mismatch");
  DenseMatrix c(a.rows_, b.cols_);
  for (std::size_t i = 0; i < a.rows_; ++i) {
    for (std::size_t k = 0; k < a.cols_; ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols_; ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

std::vector<double> DenseMatrix::apply(const std::vector<double>& x) const {
  PIPESCG_CHECK(x.size() == cols_, "apply shape mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * x[j];
    y[i] = acc;
  }
  return y;
}

double DenseMatrix::max_abs_diff(const DenseMatrix& a, const DenseMatrix& b) {
  PIPESCG_CHECK(a.rows_ == b.rows_ && a.cols_ == b.cols_,
                "max_abs_diff shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i)
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  return m;
}

void DenseMatrix::symmetrize() {
  PIPESCG_CHECK(rows_ == cols_, "symmetrize requires square matrix");
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = i + 1; j < cols_; ++j) {
      const double v = 0.5 * ((*this)(i, j) + (*this)(j, i));
      (*this)(i, j) = v;
      (*this)(j, i) = v;
    }
}

}  // namespace pipescg::la
