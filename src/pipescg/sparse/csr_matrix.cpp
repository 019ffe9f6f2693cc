#include "pipescg/sparse/csr_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "pipescg/base/error.hpp"
#include "pipescg/sparse/coo_builder.hpp"

namespace pipescg::sparse {

double OperatorStats::halo_doubles_per_rank(int num_ranks) const {
  if (num_ranks <= 1) return 0.0;
  const double local = std::max(static_cast<double>(rows) / num_ranks, 1.0);
  // Balanced Cartesian decomposition (what PETSc's DMDA would pick): ghost
  // shells of `halo_width` layers on every face of the local block.
  switch (kind) {
    case GridKind::kGrid2d: {
      const double side = std::sqrt(local);
      return 4.0 * halo_width * side;
    }
    case GridKind::kGrid3d: {
      const double side = std::cbrt(local);
      return 6.0 * halo_width * side * side;
    }
    case GridKind::kGeneral: {
      // Unstructured estimate: 2D-like boundary growth.
      return 4.0 * halo_width * std::sqrt(local);
    }
  }
  return 0.0;
}

double OperatorStats::halo_messages_per_rank(int num_ranks) const {
  if (num_ranks <= 1) return 0.0;
  return kind == GridKind::kGrid3d ? 6.0 : 4.0;
}

CsrMatrix::CsrMatrix(std::size_t nrows, std::size_t ncols,
                     std::vector<Index> row_ptr, std::vector<Index> cols,
                     std::vector<double> values, std::string name)
    : nrows_(nrows),
      ncols_(ncols),
      row_ptr_(std::move(row_ptr)),
      cols_(std::move(cols)),
      values_(std::move(values)),
      name_(std::move(name)) {
  PIPESCG_CHECK(row_ptr_.size() == nrows_ + 1, "row_ptr size must be rows+1");
  PIPESCG_CHECK(cols_.size() == values_.size(), "cols/values size mismatch");
  PIPESCG_CHECK(row_ptr_.front() == 0 &&
                    static_cast<std::size_t>(row_ptr_.back()) == cols_.size(),
                "row_ptr must start at 0 and end at nnz");
  for (std::size_t i = 0; i < nrows_; ++i) {
    PIPESCG_CHECK(row_ptr_[i] <= row_ptr_[i + 1], "row_ptr must be monotone");
    for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      PIPESCG_CHECK(cols_[static_cast<std::size_t>(k)] >= 0 &&
                        static_cast<std::size_t>(
                            cols_[static_cast<std::size_t>(k)]) < ncols_,
                    "column index out of range");
      if (k > row_ptr_[i]) {
        PIPESCG_CHECK(cols_[static_cast<std::size_t>(k - 1)] <
                          cols_[static_cast<std::size_t>(k)],
                      "columns must be strictly increasing within a row");
      }
    }
  }
}

void CsrMatrix::apply(std::span<const double> x, std::span<double> y) const {
  PIPESCG_CHECK(x.size() == ncols_ && y.size() == nrows_,
                "spmv dimension mismatch");
  const Index* rp = row_ptr_.data();
  const Index* ci = cols_.data();
  const double* v = values_.data();
  for (std::size_t i = 0; i < nrows_; ++i) {
    double acc = 0.0;
    for (Index k = rp[i]; k < rp[i + 1]; ++k)
      acc += v[k] * x[static_cast<std::size_t>(ci[k])];
    y[i] = acc;
  }
}

OperatorStats CsrMatrix::stats() const {
  OperatorStats s;
  s.rows = nrows_;
  s.nnz = nnz();
  s.kind = kind_;
  s.nx = nx_;
  s.ny = ny_;
  s.nz = nz_;
  s.halo_width = halo_width_;
  return s;
}

void CsrMatrix::set_grid_info(GridKind kind, std::size_t nx, std::size_t ny,
                              std::size_t nz, int halo_width) {
  kind_ = kind;
  nx_ = nx;
  ny_ = ny;
  nz_ = nz;
  halo_width_ = halo_width;
}

std::vector<double> CsrMatrix::diagonal() const {
  std::vector<double> d(nrows_, 0.0);
  for (std::size_t i = 0; i < nrows_; ++i)
    d[i] = entry(i, i);
  return d;
}

double CsrMatrix::entry(std::size_t i, std::size_t j) const {
  PIPESCG_CHECK(i < nrows_ && j < ncols_, "entry index out of range");
  const auto begin = cols_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i]);
  const auto end = cols_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i + 1]);
  const auto it = std::lower_bound(begin, end, static_cast<Index>(j));
  if (it == end || *it != static_cast<Index>(j)) return 0.0;
  return values_[static_cast<std::size_t>(it - cols_.begin())];
}

double CsrMatrix::symmetry_error() const {
  PIPESCG_CHECK(nrows_ == ncols_, "symmetry check requires square matrix");
  const CsrMatrix t = transposed();
  double err = 0.0;
  // Same sparsity order after transpose-of-transpose invariance is not
  // guaranteed entry-by-entry, so compare via merged row walks.
  for (std::size_t i = 0; i < nrows_; ++i) {
    Index ka = row_ptr_[i], kb = t.row_ptr_[i];
    const Index ea = row_ptr_[i + 1], eb = t.row_ptr_[i + 1];
    while (ka < ea || kb < eb) {
      const Index ca = ka < ea ? cols_[static_cast<std::size_t>(ka)]
                               : static_cast<Index>(ncols_);
      const Index cb = kb < eb ? t.cols_[static_cast<std::size_t>(kb)]
                               : static_cast<Index>(ncols_);
      if (ca == cb) {
        err = std::max(err,
                       std::abs(values_[static_cast<std::size_t>(ka)] -
                                t.values_[static_cast<std::size_t>(kb)]));
        ++ka;
        ++kb;
      } else if (ca < cb) {
        err = std::max(err, std::abs(values_[static_cast<std::size_t>(ka)]));
        ++ka;
      } else {
        err = std::max(err, std::abs(t.values_[static_cast<std::size_t>(kb)]));
        ++kb;
      }
    }
  }
  return err;
}

CsrMatrix CsrMatrix::transposed() const {
  CooBuilder builder(ncols_, nrows_);
  for (std::size_t i = 0; i < nrows_; ++i)
    for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
      builder.add(static_cast<std::size_t>(cols_[static_cast<std::size_t>(k)]),
                  i, values_[static_cast<std::size_t>(k)]);
  CsrMatrix t = builder.build(name_ + "_T");
  t.set_grid_info(kind_, nx_, ny_, nz_, halo_width_);
  return t;
}

std::vector<double> CsrMatrix::to_dense(std::size_t limit) const {
  PIPESCG_CHECK(nrows_ <= limit && ncols_ <= limit,
                "to_dense: matrix too large");
  std::vector<double> d(nrows_ * ncols_, 0.0);
  for (std::size_t i = 0; i < nrows_; ++i)
    for (Index k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
      d[i * ncols_ + static_cast<std::size_t>(
                         cols_[static_cast<std::size_t>(k)])] =
          values_[static_cast<std::size_t>(k)];
  return d;
}

}  // namespace pipescg::sparse
