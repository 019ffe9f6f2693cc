#include "pipescg/sparse/dist_csr.hpp"

#include <algorithm>

#include "pipescg/base/error.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/sparse/bytes_model.hpp"
#include "pipescg/sparse/halo_plan.hpp"

namespace pipescg::sparse {

DistCsr::DistCsr(const CsrMatrix& global, const Partition& partition, int rank,
                 SparseFormat format)
    : partition_(partition), rank_(rank), format_(format) {
  PIPESCG_CHECK(global.rows() == global.cols(),
                "distributed matrix must be square");
  PIPESCG_CHECK(global.rows() == partition.global_size(),
                "partition size mismatch");
  PIPESCG_CHECK(rank >= 0 && rank < partition.ranks(), "rank out of range");

  const par::RankRange own = partition.range(rank);
  const std::size_t nlocal = own.size();

  // Pass 1: collect ghost column ids -- the entries outside the owned run.
  const auto ci = global.col_indices();
  for (std::size_t i = own.begin; i < own.end; ++i) {
    const OwnerOrder order = owner_order(global, i, own);
    for (std::size_t r = 1; r < order.runs.size(); ++r)
      for (auto k = order.runs[r].first; k < order.runs[r].last; ++k)
        ghost_globals_.push_back(
            static_cast<std::size_t>(ci[static_cast<std::size_t>(k)]));
  }
  std::sort(ghost_globals_.begin(), ghost_globals_.end());
  ghost_globals_.erase(
      std::unique(ghost_globals_.begin(), ghost_globals_.end()),
      ghost_globals_.end());

  // Pass 2: the remapped local CSR.
  local_ = remapped_slice(global, own, ghost_globals_,
                          global.name() + "_rank" + std::to_string(rank));

  // Pass 3: the persistent pull list replayed by every halo exchange.
  pulls_ = coalesce_pulls(ghost_globals_, partition);

  // Bytes-moved model of one local SPMV (sparse/bytes_model.hpp): matrix
  // structure streamed once, every owned/ghost x entry read at least once,
  // y written once.
  if (format_ == SparseFormat::kSell) {
    sell_ = SellMatrix(local_);
    bytes_per_apply_ = sell_.bytes_per_apply();
  } else {
    bytes_per_apply_ = csr_apply_bytes(nlocal, nlocal + ghost_globals_.size(),
                                       local_.nnz());
  }
}

void DistCsr::apply(par::Comm& comm, std::span<const double> x_local,
                    std::span<double> y_local,
                    std::vector<double>& ghost_scratch) const {
  PIPESCG_CHECK(x_local.size() == local_rows() && y_local.size() == local_rows(),
                "distributed spmv size mismatch");
  // Halo exchange: one batched epoch replaying the persistent pull list.
  ghost_scratch.resize(ghost_globals_.size());
  comm.exchange(pulls_, x_local, ghost_scratch);

  // Local SPMV on [x_local ; ghosts].
  if (obs::Profiler* prof = obs::Profiler::current())
    prof->counters().spmv_bytes += bytes_per_apply_;
  obs::SpanScope span(obs::Profiler::current(), obs::SpanKind::kSpmvLocal);
  if (format_ == SparseFormat::kSell) {
    sell_.apply_split(x_local, ghost_scratch, y_local);
    return;
  }
  const auto rp = local_.row_ptr();
  const auto ci = local_.col_indices();
  const auto v = local_.values();
  const std::size_t nlocal = local_rows();
  for (std::size_t i = 0; i < nlocal; ++i) {
    double acc = 0.0;
    for (auto k = rp[i]; k < rp[i + 1]; ++k) {
      const std::size_t c =
          static_cast<std::size_t>(ci[static_cast<std::size_t>(k)]);
      const double xv =
          c < nlocal ? x_local[c] : ghost_scratch[c - nlocal];
      acc += v[static_cast<std::size_t>(k)] * xv;
    }
    y_local[i] = acc;
  }
}

}  // namespace pipescg::sparse
