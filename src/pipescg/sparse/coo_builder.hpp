// Coordinate-format accumulator that finalizes into CSR.
//
// Duplicate (i, j) entries are summed, matching the usual finite-element
// assembly convention and Matrix Market semantics.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pipescg/sparse/csr_matrix.hpp"

namespace pipescg::sparse {

class CooBuilder {
 public:
  CooBuilder(std::size_t nrows, std::size_t ncols)
      : nrows_(nrows), ncols_(ncols) {}

  std::size_t nrows() const { return nrows_; }
  std::size_t ncols() const { return ncols_; }

  void reserve(std::size_t nnz_hint) { entries_.reserve(nnz_hint); }

  /// Append one entry; duplicates are summed at build().
  void add(std::size_t i, std::size_t j, double value);

  /// Append value at (i, j) and (j, i) (skipping the mirror when i == j).
  void add_symmetric(std::size_t i, std::size_t j, double value);

  /// Sort, merge duplicates, and emit CSR.  The builder is left empty.
  CsrMatrix build(std::string name = "csr");

 private:
  struct Entry {
    std::size_t row;
    std::size_t col;
    double value;
  };

  std::size_t nrows_;
  std::size_t ncols_;
  std::vector<Entry> entries_;
};

}  // namespace pipescg::sparse
