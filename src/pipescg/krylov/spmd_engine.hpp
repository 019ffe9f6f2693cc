// SpmdEngine: runs the same solver code SPMD over a par::Comm team.
//
// Each rank owns a block of rows; apply_op performs a real halo exchange and
// dot_post/dot_wait use the runtime's genuinely non-blocking allreduce, so
// the dependency structure the paper exploits is exercised for real.  The
// preconditioner is rank-local: each rank applies pointwise Jacobi on its
// own rows, which needs no communication.
#pragma once

#include "pipescg/krylov/engine.hpp"
#include "pipescg/la/vector_kernels.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/precond/preconditioner.hpp"
#include "pipescg/sparse/dist_csr.hpp"
#include "pipescg/sparse/matrix_powers.hpp"

namespace pipescg::krylov {

class SpmdEngine final : public Engine {
 public:
  /// `local_pc`, when given, must act on this rank's local slice
  /// (rows == dist.local_rows()); nullptr means identity.
  ///
  /// `profiler`, when given, is this rank's measurement sink (typically
  /// `solve_profile.rank(comm.rank())`): the engine records kernel counters
  /// and spans into it and installs it as the calling thread's
  /// obs::Profiler::current() for its own lifetime, so the runtime layers
  /// underneath (par::Comm halo/allreduce, DistCsr local SPMV) report into
  /// the same profiler.  Construct the engine on the rank's own thread.
  ///
  /// `mpk`, when given, is this rank's matrix-powers kernel for the same
  /// operator/partition; apply_op_powers then fuses power blocks of
  /// 2..mpk->depth() SPMVs into one halo exchange.  nullptr (the default)
  /// keeps every solver on the plain apply_op path, bit-identical to a
  /// build without the kernel.
  SpmdEngine(par::Comm& comm, const sparse::DistCsr& dist,
             const precond::Preconditioner* local_pc = nullptr,
             obs::Profiler* profiler = nullptr,
             const sparse::MatrixPowers* mpk = nullptr);

  std::size_t local_size() const override { return dist_.local_rows(); }
  std::size_t global_size() const override { return dist_.global_rows(); }
  bool has_preconditioner() const override { return pc_ != nullptr; }
  bool has_matrix_powers() const override { return mpk_ != nullptr; }

  void apply_op(const Vec& x, Vec& y) override;
  void apply_pc(const Vec& r, Vec& u) override;
  void apply_op_powers(const Vec& x, std::span<Vec> outs) override;

  DotHandle dot_post(std::span<const DotPair> pairs,
                     bool blocking = false) override;
  void dot_wait(DotHandle& handle, std::span<double> out) override;

  void mark_iteration(std::uint64_t iter, double rnorm) override;

  par::Comm& comm() { return comm_; }

 protected:
  void record_compute(double flops, double bytes) override;
  double global_scale() const override {
    return static_cast<double>(global_size()) /
           static_cast<double>(std::max<std::size_t>(local_size(), 1));
  }

 private:
  par::Comm& comm_;
  const sparse::DistCsr& dist_;
  const precond::Preconditioner* pc_;
  obs::Profiler* profiler_;
  obs::Profiler::Install profiler_install_;
  const sparse::MatrixPowers* mpk_;
  mutable std::vector<double> ghost_scratch_;
  sparse::MatrixPowers::Scratch mpk_scratch_;
  std::vector<std::span<double>> mpk_outs_;
  std::uint64_t next_dot_id_ = 0;
  static constexpr std::size_t kMaxPending = 8;
  struct Pending {
    par::AllreduceRequest request;
    bool active = false;
  };
  Pending pending_[kMaxPending];
  std::vector<double> partials_;
  // Scratch views for la::dot_batch (avoids a per-post allocation).
  std::vector<la::DotView> dot_views_;
};

}  // namespace pipescg::krylov
