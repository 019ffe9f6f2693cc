// Compressed Sparse Row matrix.
//
// The canonical explicit-matrix type of the library: square, real, and for
// the CG family expected to be symmetric positive definite (checked by
// helpers, not enforced at construction).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pipescg/sparse/operator.hpp"

namespace pipescg::sparse {

class CsrMatrix final : public LinearOperator {
 public:
  using Index = std::int64_t;

  CsrMatrix() = default;

  /// Takes ownership of CSR arrays.  row_ptr.size() == nrows + 1, column
  /// indices within [0, ncols); rows must be sorted by column and without
  /// duplicates (CooBuilder guarantees this).
  CsrMatrix(std::size_t nrows, std::size_t ncols,
            std::vector<Index> row_ptr, std::vector<Index> cols,
            std::vector<double> values, std::string name = "csr");

  std::size_t rows() const override { return nrows_; }
  std::size_t cols() const { return ncols_; }
  std::size_t nnz() const { return values_.size(); }

  std::span<const Index> row_ptr() const { return row_ptr_; }
  std::span<const Index> col_indices() const { return cols_; }
  std::span<const double> values() const { return values_; }

  void apply(std::span<const double> x, std::span<double> y) const override;

  OperatorStats stats() const override;
  std::string name() const override { return name_; }
  const CsrMatrix* as_csr() const override { return this; }

  /// Annotate grid geometry so the cost model prices halos correctly.
  void set_grid_info(GridKind kind, std::size_t nx, std::size_t ny,
                     std::size_t nz, int halo_width);

  /// Main diagonal (zero where absent).
  std::vector<double> diagonal() const;

  /// Entry lookup (binary search within the row); 0 when absent.
  double entry(std::size_t i, std::size_t j) const;

  /// Structural + numerical symmetry check: max |a_ij - a_ji|.
  double symmetry_error() const;

  /// Transpose (used by tests and AMG Galerkin products).
  CsrMatrix transposed() const;

  /// Dense conversion for small matrices in tests (throws if rows > limit).
  std::vector<double> to_dense(std::size_t limit = 2048) const;

 private:
  std::size_t nrows_ = 0;
  std::size_t ncols_ = 0;
  std::vector<Index> row_ptr_;
  std::vector<Index> cols_;
  std::vector<double> values_;
  std::string name_;
  GridKind kind_ = GridKind::kGeneral;
  std::size_t nx_ = 0, ny_ = 0, nz_ = 0;
  int halo_width_ = 1;
};

}  // namespace pipescg::sparse
