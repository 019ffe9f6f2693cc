#include "pipescg/sparse/halo_plan.hpp"

#include <algorithm>
#include <utility>

#include "pipescg/base/error.hpp"

namespace pipescg::sparse {

OwnerOrder owner_order(const CsrMatrix& m, std::size_t row,
                       par::RankRange owner) {
  const auto rp = m.row_ptr();
  const CsrMatrix::Index* ci = m.col_indices().data();
  const CsrMatrix::Index begin = rp[row];
  const CsrMatrix::Index end = rp[row + 1];
  const CsrMatrix::Index* lo = std::lower_bound(
      ci + begin, ci + end, static_cast<CsrMatrix::Index>(owner.begin));
  const CsrMatrix::Index* hi = std::lower_bound(
      lo, ci + end, static_cast<CsrMatrix::Index>(owner.end));
  const CsrMatrix::Index lo_k = lo - ci;
  const CsrMatrix::Index hi_k = hi - ci;
  return OwnerOrder{{OwnerOrder::Run{lo_k, hi_k}, OwnerOrder::Run{begin, lo_k},
                     OwnerOrder::Run{hi_k, end}}};
}

void append_owner_ordered_row(const CsrMatrix& global, std::size_t row,
                              par::RankRange owner, par::RankRange local,
                              std::span<const std::size_t> ghosts,
                              std::vector<CsrMatrix::Index>& cols,
                              std::vector<double>& vals) {
  const CsrMatrix::Index* ci = global.col_indices().data();
  const double* v = global.values().data();
  const std::size_t nlocal = local.size();
  for (const OwnerOrder::Run& run : owner_order(global, row, owner).runs) {
    vals.insert(vals.end(), v + run.first, v + run.last);
    for (CsrMatrix::Index k = run.first; k < run.last; ++k) {
      const auto col = static_cast<std::size_t>(ci[k]);
      if (col >= local.begin && col < local.end) {
        cols.push_back(static_cast<CsrMatrix::Index>(col - local.begin));
        continue;
      }
      const auto it = std::lower_bound(ghosts.begin(), ghosts.end(), col);
      PIPESCG_CHECK(it != ghosts.end() && *it == col,
                    "column outside the rank's ghost list");
      cols.push_back(static_cast<CsrMatrix::Index>(
          nlocal + static_cast<std::size_t>(it - ghosts.begin())));
    }
  }
}

CsrMatrix remapped_slice(const CsrMatrix& global, par::RankRange own,
                         std::span<const std::size_t> ghosts,
                         std::string name) {
  const auto rp = global.row_ptr();
  const auto nnz = static_cast<std::size_t>(rp[own.end] - rp[own.begin]);
  std::vector<CsrMatrix::Index> lrp(own.size() + 1, 0);
  std::vector<CsrMatrix::Index> lci;
  std::vector<double> lv;
  lci.reserve(nnz);
  lv.reserve(nnz);
  for (std::size_t i = own.begin; i < own.end; ++i) {
    append_owner_ordered_row(global, i, own, own, ghosts, lci, lv);
    lrp[i - own.begin + 1] = static_cast<CsrMatrix::Index>(lci.size());
  }
  return CsrMatrix(own.size(), own.size() + ghosts.size(), std::move(lrp),
                   std::move(lci), std::move(lv), std::move(name));
}

std::vector<par::GhostPull> coalesce_pulls(std::span<const std::size_t> ghosts,
                                           const Partition& partition) {
  std::vector<par::GhostPull> pulls;
  std::size_t g = 0;
  while (g < ghosts.size()) {
    const int owner = partition.owner(ghosts[g]);
    const std::size_t owner_end = partition.end(owner);
    std::size_t len = 1;
    while (g + len < ghosts.size() && ghosts[g + len] == ghosts[g] + len &&
           ghosts[g + len] < owner_end) {
      ++len;
    }
    pulls.push_back(
        par::GhostPull{owner, ghosts[g] - partition.begin(owner), g, len});
    g += len;
  }
  return pulls;
}

}  // namespace pipescg::sparse
