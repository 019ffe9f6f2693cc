#include "pipescg/sparse/matrix_powers.hpp"

#include <algorithm>
#include <utility>

#include "pipescg/base/error.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/sparse/bytes_model.hpp"
#include "pipescg/sparse/halo_plan.hpp"

namespace pipescg::sparse {

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
  const par::RankRange own = partition.range(rank);
  nlocal_ = own.size();
  const auto rp = global.row_ptr();
  const auto ci = global.col_indices();

  // BFS layering of the column-adjacency graph seeded at the owned block:
  // layer l holds the global ids first reachable in l hops.  Values of
  // layers 1..depth are pulled; rows of layers 1..depth-1 are recomputed
  // redundantly.
  std::vector<int> layer_of(n, -1);
  for (std::size_t i = own.begin; i < own.end; ++i) layer_of[i] = 0;
  std::vector<std::size_t> frontier;
  for (std::size_t i = own.begin; i < own.end; ++i) frontier.push_back(i);
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
  local_ = remapped_slice(global, own, ghost_globals_,
                          global.name() + "_mpk_rank" + std::to_string(rank));
  if (format_ == SparseFormat::kSell) sell_ = SellMatrix(local_);

  // Redundant ghost rows in (layer, global id) order, grouped so a sweep can
  // process exactly the layers it still needs.  Each row is stored in its
  // OWNER's summation order, so every redundant recomputation performs the
  // additions the owner performs and ships on the chained path.  A layer-l
  // row is recomputed at sweeps k <= depth - l, hence (depth - l) times per
  // full block.
  rows_through_layer_.assign(static_cast<std::size_t>(depth), 0);
  ghost_row_ptr_.assign(1, 0);
  for (int layer = 1; layer <= depth - 1; ++layer) {
    for (std::size_t g = 0; g < ghost_globals_.size(); ++g) {
      if (level_[g] != layer) continue;
      append_owner_ordered_row(
          global, ghost_globals_[g],
          partition.range(partition.owner(ghost_globals_[g])), own,
          ghost_globals_, ghost_cols_, ghost_vals_);
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

  // The persistent pull list replayed by every exchange.
  pulls_ = coalesce_pulls(ghost_globals_, partition);
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
