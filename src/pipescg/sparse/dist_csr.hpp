// Distributed CSR matrix for the SPMD engine.
//
// Each rank owns a contiguous block of rows.  Off-block column references are
// satisfied through a halo exchange: at apply() time every rank exposes its
// local slice of x (RMA-style window, see par::Comm) and pulls the ghost
// entries it needs as precomputed contiguous runs (par::GhostPull), exactly
// the structure an MPI implementation would pack into neighbor messages.
//
// Column indices are remapped at construction: [0, nlocal) are owned entries
// of x, [nlocal, nlocal + nghost) index the rank's ghost buffer.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "pipescg/par/comm.hpp"
#include "pipescg/sparse/csr_matrix.hpp"
#include "pipescg/sparse/format.hpp"
#include "pipescg/sparse/partition.hpp"
#include "pipescg/sparse/sell_matrix.hpp"

namespace pipescg::sparse {

/// One rank's row block of a square CSR matrix plus the precomputed halo
/// structure needed to apply it.  Construction is local (every rank builds
/// its own instance from the replicated global structure); apply() is
/// collective over the team.
class DistCsr {
 public:
  /// Build this rank's slice of `global`.  Collective over the team only in
  /// the sense that every rank calls it; no communication happens here.
  /// `format` picks the local-apply storage: kCsr keeps the remapped CSR
  /// slice, kSell additionally converts it to SELL-C-sigma (bitwise-identical
  /// results, see sparse::SellMatrix) and applies that instead.
  DistCsr(const CsrMatrix& global, const Partition& partition, int rank,
          SparseFormat format = SparseFormat::kCsr);

  /// Rows this rank owns.
  std::size_t local_rows() const { return local_.rows(); }
  /// Rows of the global operator.
  std::size_t global_rows() const { return partition_.global_size(); }
  /// Distinct off-rank columns referenced by this rank's rows.
  std::size_t ghost_count() const { return ghost_globals_.size(); }

  std::size_t local_nnz() const { return local_.nnz(); }
  const Partition& partition() const { return partition_; }

  /// y_local = A_local [x_local; ghosts(x)].  Collective: performs one
  /// batched halo-exchange epoch on `comm` (par::Comm::exchange).
  /// x_local/y_local sized to this rank's rows.
  void apply(par::Comm& comm, std::span<const double> x_local,
             std::span<double> y_local, std::vector<double>& ghost_scratch) const;

  /// Coalesced ghost runs (messages) this rank pulls per apply.
  std::size_t halo_messages() const { return pulls_.size(); }

  /// Bytes the local SPMV moves per apply, from operator shape alone
  /// (matrix structure streamed once + x/ghost reads + y writes; see
  /// sparse/bytes_model.hpp), so the number is deterministic and identical
  /// across reruns.  Accumulated into Profiler::Counters::spmv_bytes by
  /// apply(); measured throughput is this over measured kSpmvLocal seconds
  /// (metrics::register_profile).  Reflects the active format.
  std::size_t bytes_per_apply() const { return bytes_per_apply_; }

  /// Local-apply storage format.
  SparseFormat format() const { return format_; }

 private:
  Partition partition_;
  int rank_;
  SparseFormat format_ = SparseFormat::kCsr;
  CsrMatrix local_;  // ncols = local_rows + ghost_count, remapped indices
  SellMatrix sell_;  // SELL-C-sigma view of local_ (format_ == kSell only)
  std::vector<std::size_t> ghost_globals_;  // sorted global ids of ghosts
  std::vector<par::GhostPull> pulls_;  // persistent run list for exchange()
  std::size_t bytes_per_apply_ = 0;
};

}  // namespace pipescg::sparse
