// Row-block partition bookkeeping shared by the distributed matrix and the
// SPMD engine: who owns which rows, and owner lookup for a global index.
#pragma once

#include <cstddef>
#include <vector>

#include "pipescg/par/comm.hpp"

namespace pipescg::sparse {

class Partition {
 public:
  Partition() = default;

  /// Balanced contiguous row blocks for `ranks` ranks over n rows: the
  /// first n % ranks blocks get one extra row.
  Partition(std::size_t n, int ranks);

  /// Total rows partitioned.
  std::size_t global_size() const { return n_; }
  /// Number of row blocks.
  int ranks() const { return static_cast<int>(offsets_.size()) - 1; }

  /// First global row owned by `rank`.
  std::size_t begin(int rank) const { return offsets_[rank]; }
  /// One past the last global row owned by `rank`.
  std::size_t end(int rank) const { return offsets_[rank + 1]; }
  /// Rows owned by `rank`.
  std::size_t local_size(int rank) const { return end(rank) - begin(rank); }
  /// [begin(rank), end(rank)) as one range.
  par::RankRange range(int rank) const { return {begin(rank), end(rank)}; }

  /// Owner of global row `i` (binary search over offsets).
  int owner(std::size_t i) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> offsets_;  // ranks + 1 entries
};

}  // namespace pipescg::sparse
