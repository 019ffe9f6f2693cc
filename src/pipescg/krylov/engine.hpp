// Engine: the execution substrate the solvers are written against.
//
// A solver sees the problem only through this interface:
//   * apply_op / apply_pc        -- SPMV and preconditioner application
//   * dot_post / dot_wait        -- batched dot products with non-blocking
//                                   allreduce semantics (post, overlap
//                                   compute, wait)
//   * BLAS-1 and block kernels   -- local vector work (no communication)
//
// Two engines implement it:
//   * SerialEngine -- whole vectors in one address space; optionally records
//     an EventTrace so the machine-model timeline can price the run at any
//     rank count (see sim/).
//   * SpmdEngine   -- rank-local slices on a par::Comm team; dots really do
//     post a non-blocking allreduce; SPMV does a real halo exchange.
//
// Both engines execute identical solver code, and tests assert they produce
// identical iterates, which validates the distributed implementation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pipescg/krylov/vec.hpp"
#include "pipescg/la/dense_matrix.hpp"

namespace pipescg::krylov {

/// One dot product (x, y) in a batch.
struct DotPair {
  const Vec* x;
  const Vec* y;
};

struct DotHandle {
  std::uint64_t id = 0;
  std::size_t count = 0;
  bool active = false;
};

class Engine;

/// An ordered batch of block-kernel calls run as one blocked pass
/// (la::lincomb_program).  Each call takes the arguments and keeps the zero
/// rule of the Engine block op of the same name, and charges that op's
/// logical events as it is issued, so the recorded event trace is the one
/// the immediate calls record.  run() executes the batch: every vector ends
/// bitwise as after the immediate calls in issue order.  A copy or a
/// lincomb followed by an in-place op on the same vector runs as one op
/// (the same per-element sum) when nothing issued in between reads that
/// vector or writes one of the in-place op's columns.
///
/// Nothing executes before run(): a vector the batch writes must not be read
/// outside it until then.  The storage is reused from run to run, so a
/// batch that repeats its shape allocates nothing after its first run.
class VectorBatch {
 public:
  explicit VectorBatch(Engine& engine) : engine_(&engine) {}

  void copy(const Vec& x, Vec& y);
  /// dst = start + sum_k coeff[k] * cols[k]; the start is *base, +0.0
  /// (base == nullptr) or dst itself (base == &dst).  With skip_zeros,
  /// zero-coefficient terms are left out; without it they are applied, so a
  /// NaN column under a zero weight still reaches the fault gate.  Charged
  /// as the logical unfused sequence: a fill or copy for the start (none in
  /// place), then one axpy per applied term.
  void lincomb(Vec& dst, const Vec* base, std::span<const Vec> cols,
               std::span<const double> coeff, bool skip_zeros);
  /// Y(:, j) += sum_k X(:, k) * B(k, j), zero B(k, j) skipped; B is
  /// (X.size() x Y.size()).
  void block_maxpy(VecBlock& y_block, const VecBlock& x_block,
                   const la::DenseMatrix& b);
  /// out = base - sum_k coeff[k] * block[k], every term applied (out may
  /// alias base); charged as one lumped event.
  void block_combine(Vec& out, const Vec& base, const VecBlock& block,
                     std::span<const double> coeff);
  /// y += sum_k coeff[k] * block[k], every term applied.
  void block_axpy(Vec& y, const VecBlock& block,
                  std::span<const double> coeff);
  /// Execute the batch and empty it.
  void run();

 private:
  struct Op {
    double* dst = nullptr;
    const double* base = nullptr;
    std::vector<double> coeff;
    std::vector<const double*> xs;
  };
  // The op that `dst = start + ...` accumulates into: a new op, or for an
  // in-place start the batch's last writer of dst when that is safe.
  Op& open(Vec& dst, const Vec* base, std::span<const Vec> cols);
  // Every vector a batch touches is rank-local; each call checks all of its
  // vectors before it issues anything, so a call that throws issues nothing.
  void check(std::span<const Vec> vs) const;
  void charge(double flops, double bytes);

  Engine* engine_;
  std::vector<Op> ops_;  // ops_[0, size_) are live; the rest keep capacity
  std::size_t size_ = 0;
  std::vector<la::LincombOp> program_;
};

class Engine {
 public:
  Engine() = default;
  // The immediate block ops run on a batch that points back at this engine.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  virtual ~Engine() = default;

  /// Rank-local vector length.
  virtual std::size_t local_size() const = 0;
  /// Global problem size.
  virtual std::size_t global_size() const = 0;

  /// Whether apply_pc is a real preconditioner (false => identity copy).
  virtual bool has_preconditioner() const = 0;

  Vec new_vec() const { return Vec(local_size()); }
  VecBlock new_block(std::size_t s) const {
    VecBlock b;
    b.reserve(s);
    for (std::size_t i = 0; i < s; ++i) b.emplace_back(local_size());
    return b;
  }

  // --- operator / preconditioner ---------------------------------------
  virtual void apply_op(const Vec& x, Vec& y) = 0;
  virtual void apply_pc(const Vec& r, Vec& u) = 0;

  // --- matrix powers ------------------------------------------------------
  /// Whether apply_op_powers fuses its power block into a single
  /// communication round (a matrix-powers kernel is attached, see
  /// sparse::MatrixPowers).  When false the default implementation chains
  /// apply_op calls, so s-step solvers call apply_op_powers unconditionally
  /// for unpreconditioned basis extensions; preconditioned extensions
  /// interleave apply_pc between SPMVs and cannot fuse, so they check this
  /// flag before restructuring their loops.
  virtual bool has_matrix_powers() const { return false; }
  /// outs[k] = A^{k+1} x, k = 0..outs.size()-1.  The default implementation
  /// is outs.size() chained apply_op calls -- bit-identical to a hand
  /// written power loop -- so overrides must preserve that contract up to
  /// their documented rounding (the MPK's redundant ghost rows may sum in a
  /// different order; see DESIGN.md section 8).
  virtual void apply_op_powers(const Vec& x, std::span<Vec> outs);

  // --- dot products ------------------------------------------------------
  /// Post the batch: computes local partials and starts the allreduce.
  /// `blocking` tags the collective for the cost model (a blocking
  /// MPI_Allreduce vs a non-blocking MPI_Iallreduce; the paper's async
  /// progress setup makes the two differ, see sim::MachineModel).
  virtual DotHandle dot_post(std::span<const DotPair> pairs,
                             bool blocking = false) = 0;
  /// Complete the batch; out.size() >= number of pairs posted.
  virtual void dot_wait(DotHandle& handle, std::span<double> out) = 0;
  /// Blocking convenience (tagged as a blocking collective).
  void dots(std::span<const DotPair> pairs, std::span<double> out) {
    DotHandle h = dot_post(pairs, /*blocking=*/true);
    dot_wait(h, out);
  }
  double dot(const Vec& x, const Vec& y) {
    const DotPair p{&x, &y};
    double v = 0.0;
    dots(std::span<const DotPair>(&p, 1), std::span<double>(&v, 1));
    return v;
  }

  // --- BLAS-1 (local, cost-tracked) --------------------------------------
  void copy(const Vec& x, Vec& y);
  void set_all(Vec& x, double a);
  void scale(Vec& x, double a);
  /// y += a x
  void axpy(Vec& y, double a, const Vec& x);
  /// y = x + a y
  void aypx(Vec& y, double a, const Vec& x);
  /// z = x + a y (z may alias x or y)
  void waxpy(Vec& z, double a, const Vec& y, const Vec& x);

  // --- block kernels for the s-step methods -------------------------------
  /// Each is a VectorBatch of one call (see there), run at once.
  void block_maxpy(VecBlock& y_block, const VecBlock& x_block,
                   const la::DenseMatrix& b);
  void block_combine(Vec& out, const Vec& base, const VecBlock& block,
                     std::span<const double> coeff);
  void block_axpy(Vec& y, const VecBlock& block,
                  std::span<const double> coeff);
  /// dst = (av - theta p1 [- sigma p2]) / gamma -- the shifted-basis
  /// three-term epilogue (krylov::extend_chain) fused to one pass
  /// (la::shift_combine).  p2 may be null (first recurrence step); the term
  /// guards match the unfused copy/axpy/axpy/scale chain exactly, so the
  /// result is bitwise identical to it.  dst must not alias the inputs.
  void shift_combine(Vec& dst, const Vec& av, double theta, const Vec& p1,
                     double sigma, const Vec* p2, double gamma);

  // --- instrumentation -----------------------------------------------------
  /// End of CG-equivalent iteration `iter` with residual norm `rnorm`.
  virtual void mark_iteration(std::uint64_t iter, double rnorm) = 0;

  /// Charge extra vector work to the cost model without performing it.
  /// Used by reconstructed baselines (PIPECG3/PIPECG-OATI) whose published
  /// Table-I FLOP counts exceed what this reconstruction executes.
  void charge(double flops, double bytes) { record_compute(flops, bytes); }

 protected:
  friend class VectorBatch;
  /// Cost hook: flops/bytes in *global* units for the work just performed.
  virtual void record_compute(double flops, double bytes) = 0;
  /// Scale factor turning local elements into global cost units (1 on the
  /// serial engine, global/local on SPMD ranks).
  virtual double global_scale() const = 0;

 private:
  VectorBatch immediate_{*this};
};

}  // namespace pipescg::krylov
