// Halo-plan pieces DistCsr and MatrixPowers share: the order in which a rank
// sums a row, and the coalesced pull list of a sorted ghost set.
//
// A rank sums each row as "the columns it owns, ascending, then every other
// column, ascending" -- its remapped local indices ascending, since owned
// columns map to [0, nlocal) and ghosts to nlocal + their position in the
// sorted ghost list.  CsrMatrix's constructor checks that every row's
// columns strictly increase, so that order is a rotation of the global row:
// the owned run [lo, hi), then [begin, lo), then [hi, end), found by two
// binary searches and copied without a sort.  MatrixPowers stores each
// redundant ghost row in the same order under the ghost row's OWNER range,
// which keeps an s-block bitwise identical to s chained DistCsr applies
// (DESIGN.md section 8).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "pipescg/par/comm.hpp"
#include "pipescg/sparse/csr_matrix.hpp"
#include "pipescg/sparse/partition.hpp"

namespace pipescg::sparse {

/// One row's entry positions in its matrix's CSR arrays, split by an
/// owner's row range and listed in that owner's summation order.
struct OwnerOrder {
  /// Entry positions [first, last) of one run; columns ascend within it.
  struct Run {
    CsrMatrix::Index first = 0;
    CsrMatrix::Index last = 0;
  };
  /// runs[0]: columns inside the owner range; runs[1]: columns below it;
  /// runs[2]: columns above it.  runs[1] and runs[2] are the owner's ghosts.
  std::array<Run, 3> runs;
};

/// Split row `row` of `m` by the owner range `owner`.
OwnerOrder owner_order(const CsrMatrix& m, std::size_t row,
                       par::RankRange owner);

/// Append row `row` of `global` to (cols, vals) in the summation order of
/// the rank owning `owner`, each column remapped into the index space of the
/// rank owning `local`: a column inside `local` maps to its offset there,
/// any other to local.size() + its position in the sorted `ghosts`, which
/// must contain it.
void append_owner_ordered_row(const CsrMatrix& global, std::size_t row,
                              par::RankRange owner, par::RankRange local,
                              std::span<const std::size_t> ghosts,
                              std::vector<CsrMatrix::Index>& cols,
                              std::vector<double>& vals);

/// The rows `own` of `global` as a CSR matrix over [0, own.size() +
/// ghosts.size()), each row appended by append_owner_ordered_row under its
/// own range: no per-row sort, the slice's nnz reserved up front.
CsrMatrix remapped_slice(const CsrMatrix& global, par::RankRange own,
                         std::span<const std::size_t> ghosts,
                         std::string name);

/// Coalesce sorted, distinct ghost ids into per-owner contiguous runs: the
/// persistent pull list every halo exchange replays.
std::vector<par::GhostPull> coalesce_pulls(std::span<const std::size_t> ghosts,
                                           const Partition& partition);

}  // namespace pipescg::sparse
