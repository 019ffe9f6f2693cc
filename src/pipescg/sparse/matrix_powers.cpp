#include "pipescg/sparse/matrix_powers.hpp"

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>

#include "pipescg/base/error.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/sparse/bytes_model.hpp"

namespace pipescg::sparse {
namespace {

// Remap a global column id into the extended index space [0, nlocal + G):
// owned columns keep their offset within the block, ghosts index the sorted
// deep-ghost list.
std::size_t remap_column(std::size_t col, std::size_t row_begin,
                         std::size_t row_end, std::size_t nlocal,
                         const std::vector<std::size_t>& ghost_globals) {
  if (col >= row_begin && col < row_end) return col - row_begin;
  const auto it =
      std::lower_bound(ghost_globals.begin(), ghost_globals.end(), col);
  PIPESCG_CHECK(it != ghost_globals.end() && *it == col,
                "matrix-powers column outside the ghost closure");
  return nlocal +
         static_cast<std::size_t>(it - ghost_globals.begin());
}

// Build one remapped CSR row, ordered exactly as the row's OWNER sums it:
// columns owned by the owner ascending, then the owner's ghosts ascending by
// global id.  Floating-point addition is not associative, so a redundant
// ghost row summed in any other order would drift a few ULP from the value
// its owner computes and ships on the chained path; with the owner's order
// every redundant recomputation performs the exact same additions, which is
// what makes an s-block bitwise identical to s chained applies.  For this
// rank's own rows (owner range == this rank's range) the key degenerates to
// the plain remapped-index sort DistCsr uses.
void append_remapped_row(const CsrMatrix& global, std::size_t row,
                         std::size_t row_begin, std::size_t row_end,
                         std::size_t owner_begin, std::size_t owner_end,
                         std::size_t nlocal,
                         const std::vector<std::size_t>& ghost_globals,
                         std::vector<std::tuple<std::uint64_t, CsrMatrix::Index,
                                                double>>& tmp,
                         std::vector<CsrMatrix::Index>& cols,
                         std::vector<double>& vals) {
  const auto rp = global.row_ptr();
  const auto ci = global.col_indices();
  const auto v = global.values();
  tmp.clear();
  for (auto k = rp[row]; k < rp[row + 1]; ++k) {
    const std::size_t col =
        static_cast<std::size_t>(ci[static_cast<std::size_t>(k)]);
    const bool owner_owned = col >= owner_begin && col < owner_end;
    const std::uint64_t key =
        (owner_owned ? 0 : (std::uint64_t{1} << 63)) |
        static_cast<std::uint64_t>(col);
    tmp.emplace_back(key,
                     static_cast<CsrMatrix::Index>(remap_column(
                         col, row_begin, row_end, nlocal, ghost_globals)),
                     v[static_cast<std::size_t>(k)]);
  }
  std::sort(tmp.begin(), tmp.end());
  for (const auto& [key, c, val] : tmp) {
    cols.push_back(c);
    vals.push_back(val);
  }
}

}  // namespace

MatrixPowers::MatrixPowers(const CsrMatrix& global, const Partition& partition,
                           int rank, int depth, SparseFormat format)
    : partition_(partition), rank_(rank), depth_(depth), format_(format) {
  PIPESCG_CHECK(global.rows() == global.cols(),
                "matrix-powers operator must be square");
  PIPESCG_CHECK(global.rows() == partition.global_size(),
                "partition size mismatch");
  PIPESCG_CHECK(rank >= 0 && rank < partition.ranks(), "rank out of range");
  PIPESCG_CHECK(depth >= 1 && depth <= 16, "depth must be in [1, 16]");

  const std::size_t n = global.rows();
  const std::size_t row_begin = partition.begin(rank);
  const std::size_t row_end = partition.end(rank);
  nlocal_ = row_end - row_begin;
  const auto rp = global.row_ptr();
  const auto ci = global.col_indices();

  // BFS layering of the column-adjacency graph seeded at the owned block:
  // layer l holds the global ids first reachable in l hops.  Values of
  // layers 1..depth are pulled; rows of layers 1..depth-1 are recomputed
  // redundantly.
  std::vector<int> layer_of(n, -1);
  for (std::size_t i = row_begin; i < row_end; ++i) layer_of[i] = 0;
  std::vector<std::size_t> frontier;
  for (std::size_t i = row_begin; i < row_end; ++i) frontier.push_back(i);
  for (int layer = 1; layer <= depth; ++layer) {
    std::vector<std::size_t> next_frontier;
    for (const std::size_t row : frontier) {
      for (auto k = rp[row]; k < rp[row + 1]; ++k) {
        const std::size_t col =
            static_cast<std::size_t>(ci[static_cast<std::size_t>(k)]);
        if (layer_of[col] < 0) {
          layer_of[col] = layer;
          next_frontier.push_back(col);
          ghost_globals_.push_back(col);
        }
      }
    }
    frontier = std::move(next_frontier);
  }
  std::sort(ghost_globals_.begin(), ghost_globals_.end());
  level_.reserve(ghost_globals_.size());
  for (const std::size_t g : ghost_globals_)
    level_.push_back(layer_of[g]);

  // Remapped CSR of the owned rows over [0, nlocal + deep ghosts).
  const std::size_t ncols_ext = nlocal_ + ghost_globals_.size();
  std::vector<std::tuple<std::uint64_t, CsrMatrix::Index, double>> tmp;
  {
    std::vector<CsrMatrix::Index> lrp(nlocal_ + 1, 0);
    std::vector<CsrMatrix::Index> lci;
    std::vector<double> lv;
    for (std::size_t i = row_begin; i < row_end; ++i) {
      append_remapped_row(global, i, row_begin, row_end, row_begin, row_end,
                          nlocal_, ghost_globals_, tmp, lci, lv);
      lrp[i - row_begin + 1] = static_cast<CsrMatrix::Index>(lci.size());
    }
    local_ = CsrMatrix(nlocal_, ncols_ext, std::move(lrp), std::move(lci),
                       std::move(lv),
                       global.name() + "_mpk_rank" + std::to_string(rank));
  }
  if (format_ == SparseFormat::kSell) sell_ = SellMatrix(local_);

  // Redundant ghost rows in (layer, global id) order, grouped so a sweep can
  // process exactly the layers it still needs.  A layer-l row is recomputed
  // at sweeps k <= depth - l, hence (depth - l) times per full block.
  rows_through_layer_.assign(static_cast<std::size_t>(depth), 0);
  ghost_row_ptr_.assign(1, 0);
  for (int layer = 1; layer <= depth - 1; ++layer) {
    for (std::size_t g = 0; g < ghost_globals_.size(); ++g) {
      if (level_[g] != layer) continue;
      const int owner = partition.owner(ghost_globals_[g]);
      append_remapped_row(global, ghost_globals_[g], row_begin, row_end,
                          partition.begin(owner), partition.end(owner),
                          nlocal_, ghost_globals_, tmp, ghost_cols_,
                          ghost_vals_);
      ghost_row_ptr_.push_back(static_cast<CsrMatrix::Index>(
          ghost_cols_.size()));
      ghost_row_target_.push_back(nlocal_ + g);
      redundant_nnz_ +=
          static_cast<std::size_t>(depth - layer) *
          static_cast<std::size_t>(ghost_row_ptr_.back() -
                                   ghost_row_ptr_[ghost_row_ptr_.size() - 2]);
    }
    rows_through_layer_[static_cast<std::size_t>(layer)] =
        ghost_row_target_.size();
  }

  // Coalesce the deep ghost ids into per-owner contiguous pulls -- the
  // persistent run list replayed by every exchange.
  std::size_t g = 0;
  while (g < ghost_globals_.size()) {
    const int owner = partition.owner(ghost_globals_[g]);
    const std::size_t owner_begin = partition.begin(owner);
    std::size_t len = 1;
    while (g + len < ghost_globals_.size() &&
           ghost_globals_[g + len] == ghost_globals_[g] + len &&
           partition.owner(ghost_globals_[g + len]) == owner) {
      ++len;
    }
    pulls_.push_back(
        par::GhostPull{owner, ghost_globals_[g] - owner_begin, g, len});
    g += len;
  }
}

std::size_t MatrixPowers::bytes_per_block(std::size_t count) const {
  PIPESCG_CHECK(count >= 1 && count <= static_cast<std::size_t>(depth_),
                "matrix-powers block size exceeds kernel depth");
  // Every sweep streams the owned matrix plus the shrinking redundant
  // ghost-row onion, reads the extended vector, and writes its outputs --
  // the same per-sweep accounting as DistCsr::bytes_per_apply
  // (sparse/bytes_model.hpp).
  const std::size_t owned_bytes =
      format_ == SparseFormat::kSell
          ? sell_.bytes_per_apply()
          : csr_apply_bytes(nlocal_, nlocal_ + ghost_globals_.size(),
                            local_.nnz());
  std::size_t bytes = 0;
  for (std::size_t k = 1; k <= count; ++k) {
    const std::size_t grows = rows_through_layer_[count - k];
    const std::size_t gnnz = static_cast<std::size_t>(ghost_row_ptr_[grows]);
    bytes += owned_bytes +
             gnnz * (sizeof(double) + sizeof(CsrMatrix::Index)) +
             grows * (sizeof(CsrMatrix::Index) + sizeof(double));
  }
  return bytes;
}

void MatrixPowers::apply(par::Comm& comm, std::span<const double> x_local,
                         std::span<const std::span<double>> outs,
                         Scratch& scratch) const {
  const std::size_t count = outs.size();
  PIPESCG_CHECK(count >= 1 && count <= static_cast<std::size_t>(depth_),
                "matrix-powers block size exceeds kernel depth");
  PIPESCG_CHECK(x_local.size() == nlocal_, "matrix-powers input size mismatch");
  for (const std::span<double>& out : outs)
    PIPESCG_CHECK(out.size() == nlocal_,
                  "matrix-powers output size mismatch");

  const std::size_t next_size = nlocal_ + ghost_globals_.size();
  scratch.cur.resize(next_size);
  scratch.next.resize(next_size);
  std::copy(x_local.begin(), x_local.end(), scratch.cur.begin());

  // The one halo epoch of the whole block: pull ghost layers 1..depth.
  comm.exchange(pulls_, x_local,
                std::span<double>(scratch.cur).subspan(nlocal_));
  obs::Profiler* prof = obs::Profiler::current();
  if (prof != nullptr) {
    ++prof->counters().mpk_blocks;
    prof->counters().spmv_bytes += bytes_per_block(count);
  }

  const auto sweep_rows = [](const CsrMatrix::Index* rp,
                             const CsrMatrix::Index* ci, const double* v,
                             std::size_t row_count,
                             const std::vector<double>& src, double* dst,
                             const std::size_t* targets) {
    for (std::size_t i = 0; i < row_count; ++i) {
      double acc = 0.0;
      for (auto k = rp[i]; k < rp[i + 1]; ++k)
        acc += v[static_cast<std::size_t>(k)] *
               src[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
      dst[targets == nullptr ? i : targets[i]] = acc;
    }
  };

  for (std::size_t k = 1; k <= count; ++k) {
    {
      obs::SpanScope span(prof, obs::SpanKind::kSpmvLocal);
      if (format_ == SparseFormat::kSell) {
        sell_.apply(scratch.cur,
                    std::span<double>(scratch.next.data(), nlocal_));
      } else {
        sweep_rows(local_.row_ptr().data(), local_.col_indices().data(),
                   local_.values().data(), nlocal_, scratch.cur,
                   scratch.next.data(), nullptr);
      }
      // Redundant onion: ghost rows still needed by the remaining sweeps
      // (layers 1..count-k).
      sweep_rows(ghost_row_ptr_.data(), ghost_cols_.data(),
                 ghost_vals_.data(), rows_through_layer_[count - k],
                 scratch.cur, scratch.next.data(), ghost_row_target_.data());
    }
    std::copy(scratch.next.begin(),
              scratch.next.begin() + static_cast<std::ptrdiff_t>(nlocal_),
              outs[k - 1].begin());
    std::swap(scratch.cur, scratch.next);
  }
}

}  // namespace pipescg::sparse
